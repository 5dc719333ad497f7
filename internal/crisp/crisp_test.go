package crisp

import (
	"errors"
	"strings"
	"testing"
)

func TestPhaseNames(t *testing.T) {
	if BusinessUnderstanding.String() != "business understanding" || Deployment.String() != "deployment" {
		t.Fatal("phase names wrong")
	}
	if !strings.Contains(Phase(99).String(), "99") {
		t.Fatal("unknown phase should show its value")
	}
}

func TestRunExecutesInCanonicalOrder(t *testing.T) {
	var order []string
	step := func(name string) Step {
		return Step{Name: name, Run: func(log *Log) (string, error) {
			order = append(order, name)
			return "done", nil
		}}
	}
	p := New("study")
	// Insert out of order on purpose.
	p.Add(Modeling, step("model"))
	p.Add(BusinessUnderstanding, step("goals"))
	p.Add(DataPreparation, step("prepare"))
	p.Add(Evaluation, step("assess"))
	p.Add(DataUnderstanding, step("explore"))
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"goals", "explore", "prepare", "model", "assess"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if len(p.report) != 5 {
		t.Fatalf("steps = %d", len(p.report))
	}
}

func TestRunAbortsOnError(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	p := New("bad")
	p.Add(DataPreparation, Step{Name: "explode", Run: func(log *Log) (string, error) {
		return "", boom
	}})
	p.Add(Modeling, Step{Name: "later", Run: func(log *Log) (string, error) {
		ran = true
		return "", nil
	}})
	err := p.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("later phase ran after error")
	}
	if !strings.Contains(err.Error(), "explode") || !strings.Contains(err.Error(), "data preparation") {
		t.Fatalf("error lacks context: %v", err)
	}
}

func TestReportIncludesFindingsAndNotes(t *testing.T) {
	p := New("noted")
	p.Add(Evaluation, Step{Name: "kappa", Run: func(log *Log) (string, error) {
		log.Notef("kappa = %.2f", 0.63)
		log.Notef("mcpv = %.2f", 0.86)
		return "moderate agreement", nil
	}})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	for _, want := range []string{"noted", "[evaluation]", "kappa", "moderate agreement", "kappa = 0.63", "mcpv = 0.86"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestRunIsRepeatable(t *testing.T) {
	count := 0
	p := New("twice")
	p.Add(Modeling, Step{Name: "inc", Run: func(log *Log) (string, error) {
		count++
		return "", nil
	}})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
	if len(p.report) != 1 {
		t.Fatalf("report should reset between runs: %d", len(p.report))
	}
}
