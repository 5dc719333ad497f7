package data

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// drain collects every batch of a reader as copied rows.
func drain(t *testing.T, br BatchReader) ([][]float64, []int) {
	t.Helper()
	var rows [][]float64
	var sizes []int
	for {
		b, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		sizes = append(sizes, b.Len())
		for j := 0; j < len(b.Attrs()); j++ {
			if got := len(b.Col(j)); got != b.Len() {
				t.Fatalf("column %d has %d values for a %d-row batch", j, got, b.Len())
			}
		}
		for i := 0; i < b.Len(); i++ {
			row := make([]float64, len(b.Attrs()))
			for j := range row {
				row[j] = b.At(i, j)
			}
			rows = append(rows, row)
		}
	}
	// A drained reader keeps reporting EOF.
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("drained reader returned %v, want io.EOF", err)
	}
	return rows, sizes
}

func sameRows(t *testing.T, got [][]float64, want *Dataset) {
	t.Helper()
	if len(got) != want.Len() {
		t.Fatalf("streamed %d rows, want %d", len(got), want.Len())
	}
	for i, row := range got {
		for j, v := range row {
			w := want.At(i, j)
			if IsMissing(v) != IsMissing(w) || (!IsMissing(v) && v != w) {
				t.Fatalf("row %d col %d: streamed %v, in-memory %v", i, j, v, w)
			}
		}
	}
}

func TestCSVBatchReaderMatchesReadCSV(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, chunk := range []int{1, 2, 3, 1000} {
		br, err := NewCSVBatchReader(strings.NewReader(text), chunk)
		if err != nil {
			t.Fatal(err)
		}
		rows, sizes := drain(t, br)
		sameRows(t, rows, d)
		// Ragged final chunk: every batch is full except possibly the last.
		for k, n := range sizes[:len(sizes)-1] {
			if n != chunk {
				t.Fatalf("chunk=%d: batch %d has %d rows", chunk, k, n)
			}
		}
		if last := sizes[len(sizes)-1]; last > chunk || last == 0 {
			t.Fatalf("chunk=%d: final batch has %d rows", chunk, last)
		}
	}
}

func TestCSVBatchReaderChunkLargerThanInput(t *testing.T) {
	in := "x,flag:binary\n1,true\n2,false\n"
	br, err := NewCSVBatchReader(strings.NewReader(in), 1000)
	if err != nil {
		t.Fatal(err)
	}
	rows, sizes := drain(t, br)
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("sizes = %v, want one batch of 2", sizes)
	}
	if rows[0][0] != 1 || rows[1][1] != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCSVBatchReaderEmptyBody(t *testing.T) {
	br, err := NewCSVBatchReader(strings.NewReader("a,b:nominal\n"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("empty body Next = %v, want io.EOF", err)
	}
	if len(br.Attrs()) != 2 || br.Attrs()[1].Kind != Nominal {
		t.Fatalf("schema = %+v", br.Attrs())
	}
}

func TestCSVBatchReaderEmptyInput(t *testing.T) {
	if _, err := NewCSVBatchReader(strings.NewReader(""), 8); err == nil {
		t.Fatal("expected a header error on empty input")
	}
}

func TestCSVBatchReaderReusesBatch(t *testing.T) {
	in := "x\n1\n2\n3\n4\n5\n"
	br, err := NewCSVBatchReader(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	col1 := b1.Col(0)
	b2, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("reader allocated a fresh batch per chunk")
	}
	if &col1[0] != &b2.Col(0)[0] {
		t.Fatal("reader reallocated column buffers between chunks")
	}
	if b2.At(0, 0) != 3 || b2.At(1, 0) != 4 {
		t.Fatalf("second chunk = %v", b2.Col(0))
	}
}

func TestCSVBatchReaderLevelGrowth(t *testing.T) {
	in := "s:nominal\na\nb\nc\n"
	br, err := NewCSVBatchReader(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := br.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.Attrs()[0].Levels); got != 2 {
		t.Fatalf("levels after first chunk = %d, want 2", got)
	}
	if _, err := br.Next(); err != nil {
		t.Fatal(err)
	}
	// The level set grew append-only, so earlier indices stay valid.
	if got := br.Attrs()[0].Levels; len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("levels after second chunk = %v", got)
	}
}

func TestCSVBatchReaderRowErrors(t *testing.T) {
	cases := []string{
		"x\n1,2\n",        // field count mismatch
		"x:binary\nmeh\n", // bad binary cell
		"x\nabc\n",        // bad interval cell
	}
	for i, in := range cases {
		br, err := NewCSVBatchReader(strings.NewReader(in), 8)
		if err != nil {
			t.Fatalf("case %d: header rejected: %v", i, err)
		}
		if _, err := br.Next(); err == nil {
			t.Errorf("case %d: expected a row error", i)
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll("back", NewNDJSONBatchReader(&buf, d.Attrs(), DefaultChunkSize))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.NumAttrs() != d.NumAttrs() {
		t.Fatalf("round trip shape %dx%d", back.Len(), back.NumAttrs())
	}
	for j := range d.Attrs() {
		for i := 0; i < d.Len(); i++ {
			a, b := d.At(i, j), back.At(i, j)
			if IsMissing(a) != IsMissing(b) || (!IsMissing(a) && a != b) {
				t.Fatalf("value (%d,%d) changed: %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestNDJSONReaderConventions(t *testing.T) {
	attrs := []Attribute{
		{Name: "x", Kind: Interval},
		{Name: "flag", Kind: Binary},
		{Name: "surface", Kind: Nominal, Levels: []string{"seal"}},
	}
	in := `{"x": 1.5, "flag": true, "surface": "seal"}
{"x": null, "flag": "no"}

{"flag": 0, "surface": "gravel", "x": "2.5"}
`
	br := NewNDJSONBatchReader(strings.NewReader(in), attrs, 2)
	rows, sizes := drain(t, br)
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3 (blank line skipped); sizes %v", len(rows), sizes)
	}
	if rows[0][0] != 1.5 || rows[0][1] != 1 || rows[0][2] != 0 {
		t.Fatalf("row 0 = %v", rows[0])
	}
	if !IsMissing(rows[1][0]) || rows[1][1] != 0 || !IsMissing(rows[1][2]) {
		t.Fatalf("row 1 = %v", rows[1])
	}
	// "gravel" was interned as a new level; numeric string parsed.
	if rows[2][0] != 2.5 || rows[2][1] != 0 || rows[2][2] != 1 {
		t.Fatalf("row 2 = %v", rows[2])
	}
	if got := br.Attrs()[2].Levels; len(got) != 2 || got[1] != "gravel" {
		t.Fatalf("levels = %v", got)
	}
}

func TestNDJSONReaderErrors(t *testing.T) {
	attrs := []Attribute{
		{Name: "x", Kind: Interval},
		{Name: "flag", Kind: Binary},
		{Name: "surface", Kind: Nominal},
	}
	cases := []string{
		`{"typo": 1}`,       // unknown attribute
		`{"x": "abc"}`,      // unparsable interval string
		`{"flag": 2}`,       // binary out of range
		`{"flag": "maybe"}`, // binary bad string
		`{"surface": 3}`,    // nominal wants a level name
		`{"x": [1]}`,        // unsupported value type
		`{"x": true}`,       // boolean into an interval
		`{"x": 1`,           // malformed JSON
		`{"x": 1} extra`,    // trailing data after the object
		`{"x": 1e999}`,      // number overflows float64
	}
	for i, in := range cases {
		br := NewNDJSONBatchReader(strings.NewReader(in), attrs, 8)
		if _, err := br.Next(); err == nil || err == io.EOF {
			t.Errorf("case %d: expected an error, got %v", i, err)
		}
	}
}

// TestNDJSONReaderRejectsDuplicateKeys pins the duplicate-key fix: a
// generic JSON decode resolves {"x":1,"x":9} last-wins, silently scoring
// 9 — the reader must reject the row instead, naming the repeated
// attribute. A key repeated with null is equally ambiguous and equally
// rejected; the same key on different rows is of course fine.
func TestNDJSONReaderRejectsDuplicateKeys(t *testing.T) {
	attrs := []Attribute{
		{Name: "x", Kind: Interval},
		{Name: "surface", Kind: Nominal, Levels: []string{"seal"}},
	}
	for _, in := range []string{
		`{"x": 1, "x": 9}`,
		`{"x": 1, "surface": "seal", "x": 9}`,
		`{"x": 1, "x": null}`,
		`{"surface": "seal", "surface": "seal"}`,
	} {
		br := NewNDJSONBatchReader(strings.NewReader(in), attrs, 8)
		_, err := br.Next()
		if err == nil || err == io.EOF {
			t.Fatalf("%s: expected a duplicate-key error, got %v", in, err)
		}
		if !strings.Contains(err.Error(), "duplicate attribute") {
			t.Fatalf("%s: error %q does not name the duplicate", in, err)
		}
	}
	// Repeats across rows are not duplicates: the per-row marks must reset.
	br := NewNDJSONBatchReader(strings.NewReader("{\"x\": 1}\n{\"x\": 2}\n"), attrs, 8)
	b, err := br.Next()
	if err != nil {
		t.Fatalf("distinct rows rejected: %v", err)
	}
	if b.Len() != 2 || b.At(0, 0) != 1 || b.At(1, 0) != 2 {
		t.Fatalf("rows = %v %v", b.Col(0), b.Col(1))
	}
}

func TestNDJSONReaderEmptyInput(t *testing.T) {
	attrs := []Attribute{{Name: "x", Kind: Interval}}
	br := NewNDJSONBatchReader(strings.NewReader(""), attrs, 8)
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("empty input Next = %v, want io.EOF", err)
	}
}

func TestDatasetStream(t *testing.T) {
	d := sample()
	for _, chunk := range []int{1, 2, 100} {
		rows, _ := drain(t, d.Stream(chunk))
		sameRows(t, rows, d)
	}
	// Zero-copy: the batch aliases the dataset's columns.
	b, err := d.Stream(2).Next()
	if err != nil {
		t.Fatal(err)
	}
	if &b.Col(0)[0] != &d.Col(0)[0] {
		t.Fatal("Stream copied column data")
	}
}

func TestReadAllOfStreamEqualsDataset(t *testing.T) {
	d := sample()
	back, err := ReadAll("copy", d.Stream(2))
	if err != nil {
		t.Fatal(err)
	}
	sameRowsDataset := func(a, b *Dataset) {
		t.Helper()
		if a.Len() != b.Len() || a.NumAttrs() != b.NumAttrs() {
			t.Fatalf("shape %dx%d vs %dx%d", a.Len(), a.NumAttrs(), b.Len(), b.NumAttrs())
		}
		for j := 0; j < a.NumAttrs(); j++ {
			for i := 0; i < a.Len(); i++ {
				x, y := a.At(i, j), b.At(i, j)
				if IsMissing(x) != IsMissing(y) || (!IsMissing(x) && x != y) {
					t.Fatalf("value (%d,%d): %v vs %v", i, j, x, y)
				}
			}
		}
	}
	sameRowsDataset(d, back)
}
