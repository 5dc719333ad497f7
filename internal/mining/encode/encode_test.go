package encode

import (
	"math"
	"testing"

	"roadcrash/internal/data"
)

func testDS() *data.Dataset {
	return data.NewBuilder("e").
		Interval("x").
		Nominal("s", "a", "b", "c").
		Binary("flag").
		Binary("target").
		Row(1, 0, 1, 0).
		Row(2, 1, 0, 1).
		Row(3, 2, 1, 0).
		Row(data.Missing, data.Missing, data.Missing, 1).
		Build()
}

func TestFitWidthAndNames(t *testing.T) {
	ds := testDS()
	e, err := Fit(ds, Options{Bias: true, Exclude: []string{"target"}})
	if err != nil {
		t.Fatal(err)
	}
	// bias + x + 3 one-hot + flag = 6.
	if e.Width() != 6 {
		t.Fatalf("width = %d, want 6", e.Width())
	}
	names := e.colNames
	if names[0] != "(bias)" || names[2] != "s=a" || names[5] != "flag" {
		t.Fatalf("names = %v", names)
	}
}

func TestTransformStandardizes(t *testing.T) {
	ds := testDS()
	e, err := Fit(ds, Options{Exclude: []string{"target"}})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Matrix(ds)
	// x over {1,2,3}: mean 2, population sd sqrt(2/3).
	sd := math.Sqrt(2.0 / 3.0)
	if math.Abs(m[0][0]-(1-2)/sd) > 1e-9 {
		t.Fatalf("standardized x = %v", m[0][0])
	}
	// Missing x imputes to mean → standardized 0.
	if m[3][0] != 0 {
		t.Fatalf("imputed x = %v, want 0", m[3][0])
	}
	// One-hot: row 1 has level b.
	if m[1][1] != 0 || m[1][2] != 1 || m[1][3] != 0 {
		t.Fatalf("one-hot = %v", m[1][1:4])
	}
	// Missing nominal spreads uniformly.
	if math.Abs(m[3][1]-1.0/3) > 1e-9 || math.Abs(m[3][3]-1.0/3) > 1e-9 {
		t.Fatalf("missing nominal = %v", m[3][1:4])
	}
	// Missing binary imputes to prevalence 2/3.
	if math.Abs(m[3][4]-2.0/3) > 1e-9 {
		t.Fatalf("missing binary = %v", m[3][4])
	}
}

func TestTransformReusesBuffer(t *testing.T) {
	ds := testDS()
	e, _ := Fit(ds, Options{Exclude: []string{"target"}})
	raw := ds.Row(0, nil)
	buf := make([]float64, e.Width())
	out := e.Transform(raw, buf)
	if &out[0] != &buf[0] {
		t.Fatal("Transform did not reuse buffer")
	}
}

func TestFitErrors(t *testing.T) {
	ds := testDS()
	if _, err := Fit(ds, Options{Exclude: []string{"ghost"}}); err == nil {
		t.Error("unknown exclusion should error")
	}
	if _, err := Fit(ds, Options{Exclude: []string{"x", "s", "flag", "target"}}); err == nil {
		t.Error("no features left should error")
	}
	empty := data.NewBuilder("empty").Nominal("n").Build()
	if _, err := Fit(empty, Options{}); err == nil {
		t.Error("nominal without levels should error")
	}
}

func TestConstantColumnSafe(t *testing.T) {
	ds := data.NewBuilder("c").Interval("k").Row(7).Row(7).Build()
	e, err := Fit(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := e.Matrix(ds)
	if m[0][0] != 0 || m[1][0] != 0 {
		t.Fatalf("constant column encoded as %v", m)
	}
}
