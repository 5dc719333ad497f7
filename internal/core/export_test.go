package core

import (
	"bytes"
	"strings"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/roadnet"
)

func TestExportArtifactTree(t *testing.T) {
	s := smallStudy(t)
	a, err := s.ExportArtifact(ExportOptions{Phase: 2, Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "phase2-tree-cp8" || a.Kind != artifact.KindDecisionTree {
		t.Fatalf("artifact = %q %q", a.Name, a.Kind)
	}
	if a.Threshold != 8 || a.Target != TargetAttr {
		t.Fatalf("threshold/target = %d %q", a.Threshold, a.Target)
	}
	if a.Seed != s.Config.Network.Seed {
		t.Fatalf("seed = %d", a.Seed)
	}
	for _, k := range []string{"mcpv", "kappa", "leaves", "instances", "prone", "non_prone"} {
		if _, ok := a.Metrics[k]; !ok {
			t.Errorf("metric %q missing: %v", k, a.Metrics)
		}
	}
	// The schema is the full derived training schema, ending in targets.
	names := make([]string, 0, len(a.Schema))
	for _, at := range a.Schema {
		names = append(names, at.Name)
	}
	if names[len(names)-2] != TargetAttr || names[len(names)-1] != TargetNumAttr {
		t.Fatalf("schema tail = %v", names)
	}

	// Persist, reload, and confirm the decoded model scores the study's own
	// instances exactly like an in-process model over the same artifact.
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := artifact.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := a.Model()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := back.Model()
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := artifact.NewRowMapper(back)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := mapper.MapDataset(s.CrashOnlyDataset())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows[:200] {
		if p1, p2 := m1.PredictProb(row), m2.PredictProb(row); p1 != p2 {
			t.Fatalf("row %d: %v vs %v after round-trip", i, p1, p2)
		}
	}
}

func TestExportArtifactLearners(t *testing.T) {
	s := smallStudy(t)
	for _, learner := range ExportLearners() {
		// The ensembles retrain dozens of trees; keep this test to the
		// single-model learners, the ensembles are covered in the artifact
		// round-trip suite.
		if learner == "bagging" || learner == "adaboost" {
			continue
		}
		// The zinb hurdle needs the zero-crash segments only phase 1 keeps.
		phase := 2
		if learner == "zinb" {
			phase = 1
		}
		a, err := s.ExportArtifact(ExportOptions{Phase: phase, Threshold: 4, Learner: learner})
		if err != nil {
			t.Fatalf("%s: %v", learner, err)
		}
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatalf("%s: %v", learner, err)
		}
		if _, err := artifact.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: decode: %v", learner, err)
		}
		if !strings.Contains(a.Name, learner) {
			t.Errorf("%s: name %q", learner, a.Name)
		}
		switch learner {
		case "regtree":
			if a.Target != TargetNumAttr {
				t.Errorf("regtree target = %q", a.Target)
			}
			if _, ok := a.Metrics["r_squared"]; !ok {
				t.Errorf("regtree metrics = %v", a.Metrics)
			}
		case "m5":
			// Regresses the 0/1 target but is assessed as a classifier.
			if a.Target != TargetNumAttr {
				t.Errorf("m5 target = %q", a.Target)
			}
			for _, k := range []string{"mcpv", "leaves"} {
				if _, ok := a.Metrics[k]; !ok {
					t.Errorf("m5 metric %q missing: %v", k, a.Metrics)
				}
			}
		case "zinb":
			// The hurdle regresses the raw count; the artifact classifies
			// P(count > threshold) against the same derived boundary.
			if a.Target != roadnet.CrashCountAttr {
				t.Errorf("zinb target = %q", a.Target)
			}
			if a.Threshold != 4 {
				t.Errorf("zinb threshold = %d", a.Threshold)
			}
			if _, ok := a.Metrics["mcpv"]; !ok {
				t.Errorf("zinb metrics = %v", a.Metrics)
			}
		case "neural":
			if a.Target != TargetAttr {
				t.Errorf("neural target = %q", a.Target)
			}
			if _, ok := a.Metrics["mcpv"]; !ok {
				t.Errorf("neural metrics = %v", a.Metrics)
			}
		}
	}
}

func TestExportArtifactErrors(t *testing.T) {
	s := smallStudy(t)
	cases := []ExportOptions{
		{Phase: 3, Threshold: 8},                  // bad phase
		{Phase: 2, Threshold: 8, Learner: "svm"},  // unknown learner
		{Phase: 2, Threshold: 0},                  // >0 boundary needs phase 1
		{Phase: 2, Threshold: -1},                 // negative threshold
		{Phase: 2, Threshold: 1 << 20},            // single-class derivation
		{Phase: 2, Threshold: 4, Learner: "zinb"}, // the hurdle needs phase 1's zero-crash rows
	}
	for i, opt := range cases {
		if _, err := s.ExportArtifact(opt); err == nil {
			t.Errorf("case %d (%+v): no error", i, opt)
		}
	}
}

// TestExportBest pins the path `crashprone sweep -export-best` runs: the
// sweep's best-MCPV threshold exported through ExportArtifact.
func TestExportBest(t *testing.T) {
	s := smallStudy(t)
	rows, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestThreshold(rows)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.ExportArtifact(ExportOptions{Phase: 2, Threshold: best, Learner: "tree"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Threshold != best {
		t.Fatalf("exported threshold %d, sweep best %d", a.Threshold, best)
	}
	// The recorded MCPV must match the sweep row exactly: same split seed,
	// same learner configuration.
	for _, r := range rows {
		if r.Threshold == best && a.Metrics["mcpv"] != r.MCPV {
			t.Fatalf("artifact MCPV %v, sweep row %v", a.Metrics["mcpv"], r.MCPV)
		}
	}
}

// TestExportScoreParity pins the acceptance path: an exported artifact
// scoring a generated segments CSV must agree bit-for-bit with in-process
// prediction on the same instances.
func TestExportScoreParity(t *testing.T) {
	s := smallStudy(t)
	a, err := s.ExportArtifact(ExportOptions{Phase: 2, Threshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Write the raw study segments (with bookkeeping columns) as a CSV, the
	// way `crashprone generate` would, and reload it.
	var csv bytes.Buffer
	if err := s.Data.Crash.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	ds, err := data.ReadCSV("crash.csv", bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var persisted bytes.Buffer
	if err := a.Encode(&persisted); err != nil {
		t.Fatal(err)
	}
	back, err := artifact.Decode(bytes.NewReader(persisted.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := back.Model()
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := artifact.NewRowMapper(back)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := mapper.MapDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	offline := artifact.Score(scorer, rows)
	if !artifact.Finite(offline) {
		t.Fatal("offline scores not finite")
	}

	inProcess, err := a.Model()
	if err != nil {
		t.Fatal(err)
	}
	inMapper, err := artifact.NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}
	inRows, err := inMapper.MapDataset(s.Data.Crash)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if want, got := inProcess.PredictProb(inRows[i]), offline[i]; want != got {
			t.Fatalf("segment %d: offline %v, in-process %v", i, got, want)
		}
	}
}
