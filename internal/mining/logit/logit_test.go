package logit

import (
	"encoding/json"
	"math"
	"testing"

	"roadcrash/internal/data"
	"roadcrash/internal/rng"
)

func logisticDataset(n int, seed uint64) *data.Dataset {
	r := rng.New(seed)
	b := data.NewBuilder("l").Interval("x1").Interval("x2").Binary("y")
	for i := 0; i < n; i++ {
		x1, x2 := r.Normal(0, 1), r.Normal(0, 1)
		p := 1 / (1 + math.Exp(-(2*x1 - x2)))
		y := 0.0
		if r.Bool(p) {
			y = 1
		}
		b.Row(x1, x2, y)
	}
	return b.Build()
}

func TestRecoverLogisticRelation(t *testing.T) {
	ds := logisticDataset(5000, 1)
	m, err := Train(ds, ds.MustAttrIndex("y"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Inputs are ~standardized already, so fitted weights should be near
	// the generating ones (bias, 2, -1).
	w := m.weights
	if math.Abs(w[1]-2) > 0.25 || math.Abs(w[2]+1) > 0.25 {
		t.Fatalf("weights = %v, want ≈ [_, 2, -1]", w)
	}
	if m.iters == 0 || m.iters > 50 {
		t.Fatalf("iterations = %d", m.iters)
	}
}

func TestPredictProbMonotoneInSignal(t *testing.T) {
	ds := logisticDataset(3000, 2)
	m, err := Train(ds, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for x := -3.0; x <= 3; x += 0.5 {
		p := m.PredictProb([]float64{x, 0, 0})
		if p <= prev {
			t.Fatalf("P not increasing in x1 at %v", x)
		}
		if p < 0 || p > 1 {
			t.Fatalf("P out of range: %v", p)
		}
		prev = p
	}
}

func TestSeparableDataConverges(t *testing.T) {
	// Perfectly separable data: ridge keeps IRLS finite.
	b := data.NewBuilder("sep").Interval("x").Binary("y")
	for i := 0; i < 200; i++ {
		x := float64(i%10) - 5
		y := 0.0
		if x > 0 {
			y = 1
		}
		b.Row(x, y)
	}
	ds := b.Build()
	m, err := Train(ds, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := m.PredictProb([]float64{4, 0}); p < 0.9 {
		t.Fatalf("P(pos|x=4) = %v", p)
	}
	if p := m.PredictProb([]float64{-4, 0}); p > 0.1 {
		t.Fatalf("P(pos|x=-4) = %v", p)
	}
}

func TestNominalAndMissingHandled(t *testing.T) {
	r := rng.New(3)
	b := data.NewBuilder("nm").Nominal("c", "u", "v").Interval("x").Binary("y")
	for i := 0; i < 2000; i++ {
		c := float64(r.Intn(2))
		x := r.Normal(0, 1)
		if i%11 == 0 {
			x = data.Missing
		}
		p := 1 / (1 + math.Exp(-(2*c - 1 + x)))
		if data.IsMissing(x) {
			p = 1 / (1 + math.Exp(-(2*c - 1)))
		}
		y := 0.0
		if r.Bool(p) {
			y = 1
		}
		b.Row(c, x, y)
	}
	ds := b.Build()
	m, err := Train(ds, ds.MustAttrIndex("y"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pv := m.PredictProb([]float64{1, 0, 0})
	pu := m.PredictProb([]float64{0, 0, 0})
	if pv <= pu {
		t.Fatalf("level v should raise probability: %v vs %v", pv, pu)
	}
	if p := m.PredictProb([]float64{1, data.Missing, 0}); p < 0 || p > 1 {
		t.Fatalf("missing-x prediction = %v", p)
	}
}

func TestExcludeOption(t *testing.T) {
	ds := logisticDataset(1000, 4)
	cfg := DefaultConfig()
	cfg.Exclude = []string{"x2"}
	m, err := Train(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := m.enc.Width(); w != 2 { // bias + x1
		t.Fatalf("design width = %d, want 2", w)
	}
	if m.PredictProb([]float64{0.5, -3, 0}) != m.PredictProb([]float64{0.5, 3, 0}) {
		t.Fatal("x2 should be excluded")
	}
}

func TestErrors(t *testing.T) {
	ds := logisticDataset(100, 5)
	if _, err := Train(ds, 99, DefaultConfig()); err == nil {
		t.Error("bad target should error")
	}
	if _, err := Train(ds, 0, DefaultConfig()); err == nil {
		t.Error("interval target should error")
	}
	cfg := DefaultConfig()
	cfg.Exclude = []string{"ghost"}
	if _, err := Train(ds, 2, cfg); err == nil {
		t.Error("unknown exclusion should error")
	}
	empty := data.NewBuilder("e").Interval("x").Binary("y").Row(1, data.Missing).Build()
	if _, err := Train(empty, 1, DefaultConfig()); err == nil {
		t.Error("no labelled rows should error")
	}
}

func TestDeterministic(t *testing.T) {
	ds := logisticDataset(500, 6)
	m1, err := Train(ds, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(ds, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range m1.weights {
		if w != m2.weights[i] {
			t.Fatal("training is not deterministic")
		}
	}
}

// TestMarshalRoundTrip pins the artifact payload: a decoded model scores
// bit-identically, and a payload without an encoder, with a weight count
// that disagrees with the design, or that is not JSON is rejected.
func TestMarshalRoundTrip(t *testing.T) {
	ds := logisticDataset(400, 7)
	m, err := Train(ds, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.iters != m.iters {
		t.Fatalf("iterations %d -> %d", m.iters, back.iters)
	}
	for _, row := range [][]float64{{0, 0, 0}, {1.5, -2, 1}, {data.Missing, 0.3, 0}, {-1, data.Missing, 1}} {
		if got, want := back.PredictProb(row), m.PredictProb(row); got != want {
			t.Fatalf("row %v: decoded %v, trained %v", row, got, want)
		}
	}
	if err := back.Validate(ds.NumAttrs()); err != nil {
		t.Fatalf("decoded model fails its own schema: %v", err)
	}
	if _, err := json.Marshal(&Model{}); err == nil {
		t.Error("unfitted model marshaled")
	}
	var p map[string]json.RawMessage
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	short, err := json.Marshal(map[string]json.RawMessage{"encoder": p["encoder"], "weights": json.RawMessage("[1]")})
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string]string{
		"not JSON":        "{",
		"no encoder":      `{"weights":[1,2]}`,
		"too few weights": string(short),
	} {
		if err := json.Unmarshal([]byte(payload), &back); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
