package data

import (
	"math"
	"strings"
	"testing"
)

func sample() *Dataset {
	return NewBuilder("sample").
		Interval("aadt").
		Nominal("surface", "asphalt", "chip-seal").
		Binary("crash").
		Interval("count").
		Row(1200, 0, 0, 0).
		Row(4500, 1, 1, 3).
		Row(800, 0, 1, 1).
		Row(9900, 1, 1, 12).
		Row(Missing, 0, 0, 0).
		Build()
}

func TestBuilderBasics(t *testing.T) {
	d := sample()
	if d.Len() != 5 || d.NumAttrs() != 4 {
		t.Fatalf("len=%d attrs=%d", d.Len(), d.NumAttrs())
	}
	if d.Name() != "sample" {
		t.Fatalf("name = %q", d.Name())
	}
	if d.Attr(1).Kind != Nominal || len(d.Attr(1).Levels) != 2 {
		t.Fatalf("attr 1 = %+v", d.Attr(1))
	}
	if d.At(1, 3) != 3 {
		t.Fatalf("At(1,3) = %v", d.At(1, 3))
	}
	if !IsMissing(d.At(4, 0)) {
		t.Fatal("missing value lost")
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := map[string]func(){
		"duplicate attr": func() { NewBuilder("x").Interval("a").Interval("a") },
		"short row":      func() { NewBuilder("x").Interval("a").Interval("b").Row(1) },
		"bad binary":     func() { NewBuilder("x").Binary("a").Row(2) },
		"bad nominal":    func() { NewBuilder("x").Nominal("a", "u", "v").Row(5) },
		"frac nominal":   func() { NewBuilder("x").Nominal("a", "u", "v").Row(0.5) },
		"attr after row": func() { NewBuilder("x").Interval("a").Row(1).Interval("b") },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAttrIndex(t *testing.T) {
	d := sample()
	j, err := d.AttrIndex("crash")
	if err != nil || j != 2 {
		t.Fatalf("AttrIndex = %d, %v", j, err)
	}
	if _, err := d.AttrIndex("nope"); err == nil {
		t.Fatal("missing attribute should error")
	}
	if d.MustAttrIndex("count") != 3 {
		t.Fatal("MustAttrIndex mismatch")
	}
}

func TestMustAttrIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAttrIndex on unknown attr should panic")
		}
	}()
	sample().MustAttrIndex("ghost")
}

func TestRowCopies(t *testing.T) {
	d := sample()
	row := d.Row(1, nil)
	want := []float64{4500, 1, 1, 3}
	for j, v := range want {
		if row[j] != v {
			t.Fatalf("row = %v, want %v", row, want)
		}
	}
	// Reuse a buffer.
	buf := make([]float64, 4)
	row2 := d.Row(0, buf)
	if &row2[0] != &buf[0] {
		t.Fatal("Row did not reuse the buffer")
	}
}

func TestSubset(t *testing.T) {
	d := sample()
	s := d.Subset("sub", []int{3, 0, 3})
	if s.Len() != 3 || s.At(0, 3) != 12 || s.At(2, 3) != 12 {
		t.Fatalf("subset wrong: %v", s.Col(3))
	}
}

func TestSubsetIsACopy(t *testing.T) {
	d := sample()
	s := d.Subset("sub", []int{0})
	s.Col(0)[0] = -99
	if d.At(0, 0) == -99 {
		t.Fatal("Subset aliases parent storage")
	}
}

func TestDropKeepAttrs(t *testing.T) {
	d := sample()
	dropped, err := d.DropAttrs("surface")
	if err != nil {
		t.Fatal(err)
	}
	if dropped.NumAttrs() != 3 {
		t.Fatalf("drop left %d attrs", dropped.NumAttrs())
	}
	if _, err := dropped.AttrIndex("surface"); err == nil {
		t.Fatal("surface should be gone")
	}
	if _, err := d.DropAttrs("ghost"); err == nil {
		t.Fatal("dropping unknown attr should error")
	}
	kept, err := d.KeepAttrs("count", "aadt")
	if err != nil {
		t.Fatal(err)
	}
	if kept.NumAttrs() != 2 || kept.Attr(0).Name != "count" {
		t.Fatalf("keep gave %v", kept.Attrs())
	}
	if _, err := d.KeepAttrs("ghost"); err == nil {
		t.Fatal("keeping unknown attr should error")
	}
}

func TestAppendColumn(t *testing.T) {
	d := sample()
	d2, err := d.AppendColumn(Attribute{Name: "extra", Kind: Interval}, []float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumAttrs() != 5 || d2.At(4, 4) != 5 {
		t.Fatal("append column failed")
	}
	if _, err := d.AppendColumn(Attribute{Name: "aadt"}, []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("duplicate column should error")
	}
	if _, err := d.AppendColumn(Attribute{Name: "short"}, []float64{1}); err == nil {
		t.Fatal("wrong length should error")
	}
}

func TestConcat(t *testing.T) {
	d := sample()
	both, err := d.Concat("both", d)
	if err != nil {
		t.Fatal(err)
	}
	if both.Len() != 10 {
		t.Fatalf("concat len = %d", both.Len())
	}
	other := NewBuilder("other").Interval("x").Build()
	if _, err := d.Concat("bad", other); err == nil {
		t.Fatal("schema mismatch should error")
	}
}

func TestMissingCount(t *testing.T) {
	d := sample()
	if d.MissingCount(0) != 1 || d.MissingCount(1) != 0 {
		t.Fatal("missing counts wrong")
	}
}

func TestWithName(t *testing.T) {
	d := sample().WithName("renamed")
	if d.Name() != "renamed" || d.Len() != 5 {
		t.Fatal("WithName broken")
	}
}

func TestKindString(t *testing.T) {
	if Interval.String() != "interval" || Nominal.String() != "nominal" || Binary.String() != "binary" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should include its value")
	}
}

func TestSummarize(t *testing.T) {
	d := sample()
	sums := d.Summarize()
	if sums[0].Missing != 1 || sums[0].N != 4 {
		t.Fatalf("aadt summary = %+v", sums[0])
	}
	if math.Abs(sums[0].Mean-(1200+4500+800+9900)/4.0) > 1e-9 {
		t.Fatalf("aadt mean = %v", sums[0].Mean)
	}
	if len(sums[1].LevelCounts) != 2 || sums[1].LevelCounts[0] != 3 {
		t.Fatalf("surface levels = %v", sums[1].LevelCounts)
	}
	if !strings.Contains(d.String(), "sample") {
		t.Fatal("String() missing dataset name")
	}
}
