package geo

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"roadcrash/internal/data"
)

// fakeReader is a BatchReader whose schema lacks the coordinate columns.
type fakeReader struct{}

func (f *fakeReader) Next() (*data.Batch, error) { return nil, io.EOF }
func (f *fakeReader) Attrs() []data.Attribute {
	return []data.Attribute{{Name: "aadt", Kind: data.Interval}}
}

func testModel(t *testing.T) *Model {
	t.Helper()
	g, err := NewGrid(0, 0, 10, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &Model{
		Grid:   g,
		Method: MethodPersistence,
		Risk:   []float64{0.1, 0.9, 0.9, 0.4},
	}
}

func TestModelPredictProb(t *testing.T) {
	m := testModel(t)
	cases := []struct {
		row  []float64
		want float64
	}{
		{[]float64{1, 1}, 0.1},
		{[]float64{7, 1}, 0.9},
		{[]float64{1, 7}, 0.9},
		{[]float64{7, 7}, 0.4},
		{[]float64{50, 50}, 0},        // outside the grid
		{[]float64{math.NaN(), 1}, 0}, // missing coordinate
		{[]float64{1}, 0},             // short row cannot be scored
	}
	for _, c := range cases {
		if got := m.PredictProb(c.row); got != c.want {
			t.Errorf("PredictProb(%v) = %v, want %v", c.row, got, c.want)
		}
	}
}

// TestModelColumnarBitIdentical pins the compiled-layer contract: the
// columnar path returns exactly the row path's probabilities.
func TestModelColumnarBitIdentical(t *testing.T) {
	m := testModel(t)
	xs := []float64{1, 7, 1, 7, 50, math.NaN(), 2.5}
	ys := []float64{1, 1, 7, 7, 50, 1, 5}
	out := make([]float64, len(xs))
	m.ScoreColumns([][]float64{xs, ys}, out)
	for i := range xs {
		want := m.PredictProb([]float64{xs[i], ys[i]})
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: columnar %v vs row-path %v", i, out[i], want)
		}
	}
}

func TestModelValidate(t *testing.T) {
	m := testModel(t)
	if err := m.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(3); err == nil {
		t.Error("wrong column count should error")
	}
	bad := testModel(t)
	bad.Risk = bad.Risk[:3]
	if err := bad.Validate(2); err == nil {
		t.Error("risk/cell mismatch should error")
	}
	bad = testModel(t)
	bad.Risk[1] = 1.5
	if err := bad.Validate(2); err == nil {
		t.Error("risk outside [0,1] should error")
	}
	bad = testModel(t)
	bad.Risk[1] = math.NaN()
	if err := bad.Validate(2); err == nil {
		t.Error("NaN risk should error")
	}
	bad = testModel(t)
	bad.Method = "voodoo"
	if err := bad.Validate(2); err == nil {
		t.Error("unknown method should error")
	}
	bad = testModel(t)
	bad.Method = MethodKDE // kde requires a bandwidth
	if err := bad.Validate(2); err == nil {
		t.Error("kde without bandwidth should error")
	}
	bad = testModel(t)
	bad.Grid.CellKm = 0
	if err := bad.Validate(2); err == nil {
		t.Error("degenerate grid should error")
	}
	good := testModel(t)
	good.Rate = []float64{0.1, 40, 50, 0}
	if err := good.Validate(2); err != nil {
		t.Fatalf("valid rate rejected: %v", err)
	}
	for name, rate := range map[string][]float64{
		"short rate":    {0.1, 40, 50},
		"empty rate":    {},
		"NaN rate":      {0.1, math.NaN(), 50, 0},
		"infinite rate": {0.1, math.Inf(1), 50, 0},
		"negative rate": {0.1, 40, -1, 0},
	} {
		bad = testModel(t)
		bad.Rate = rate
		if err := bad.Validate(2); err == nil {
			t.Errorf("%s %v accepted", name, rate)
		}
	}
}

func TestTopCells(t *testing.T) {
	m := testModel(t)
	top := m.TopCells(2)
	if len(top) != 2 {
		t.Fatalf("TopCells(2) returned %d cells", len(top))
	}
	// Cells 1 and 2 tie at 0.9: the lower index ranks first.
	if top[0].Cell != 1 || top[1].Cell != 2 {
		t.Fatalf("top cells = %d, %d; want 1, 2 (tie broken by index)", top[0].Cell, top[1].Cell)
	}
	if x, y := m.Grid.Center(1); top[0].XKm != x || top[0].YKm != y {
		t.Fatalf("top cell center = (%v, %v), want (%v, %v)", top[0].XKm, top[0].YKm, x, y)
	}
	// k beyond the cell count clamps; k <= 0 is empty.
	if got := m.TopCells(100); len(got) != 4 {
		t.Fatalf("TopCells(100) returned %d cells", len(got))
	}
	if got := m.TopCells(0); got != nil {
		t.Fatalf("TopCells(0) = %v, want nil", got)
	}
	// The order was ranked by the first call: later calls only copy a
	// prefix of it into the one returned slice.
	if n := testing.AllocsPerRun(100, func() { m.TopCells(2) }); n != 1 {
		t.Fatalf("TopCells after first use allocates %v times, want 1", n)
	}
}

// TestTopCellsRanksOnRate pins the ranking key: risk 1 - exp(-λ) is
// exactly 1 for every cell here, so a risk ranking would fall back to
// index order, while the cells rank on the expected crash count λ (ties
// on the lower index). Without a rate the same surface ranks on risk.
func TestTopCellsRanksOnRate(t *testing.T) {
	m := testModel(t)
	m.Risk = []float64{1, 1, 1, 1}
	m.Rate = []float64{40, 90, 55, 90}
	var got []int
	for _, c := range m.TopCells(4) {
		got = append(got, c.Cell)
		if c.Risk != 1 {
			t.Fatalf("cell %d serves risk %v, want its risk 1", c.Cell, c.Risk)
		}
	}
	if want := []int{1, 3, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("rate-ranked cells = %v, want %v", got, want)
	}
	if key := m.RankKey(); &key[0] != &m.Rate[0] {
		t.Fatal("RankKey is not the rate")
	}

	old := testModel(t)
	old.Risk = []float64{1, 1, 1, 1}
	got = got[:0]
	for _, c := range old.TopCells(4) {
		got = append(got, c.Cell)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("risk-ranked cells without a rate = %v, want %v", got, want)
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := testModel(t)
	m.Rate = []float64{0.1, 2.3, 2.3, 0.5}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(2); err != nil {
		t.Fatal(err)
	}
	if back.Grid != m.Grid || back.Method != m.Method || len(back.Risk) != len(m.Risk) {
		t.Fatalf("round trip changed the model: %+v vs %+v", &back, m)
	}
	for c := range m.Risk {
		if back.Risk[c] != m.Risk[c] || back.Rate[c] != m.Rate[c] {
			t.Fatalf("cell %d drifted: risk %v rate %v vs risk %v rate %v",
				c, back.Risk[c], back.Rate[c], m.Risk[c], m.Rate[c])
		}
	}
	// A surface without a rate writes no rate key and reads back without
	// one, so it keeps ranking on risk.
	m.Rate = nil
	if b, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"rate"`) {
		t.Fatalf("rate-less surface encodes a rate: %s", b)
	}
	var noRate Model
	if err := json.Unmarshal(b, &noRate); err != nil {
		t.Fatal(err)
	}
	if noRate.Rate != nil || &noRate.RankKey()[0] != &noRate.Risk[0] {
		t.Fatalf("rate-less round trip ranks on %v", noRate.RankKey())
	}
}
