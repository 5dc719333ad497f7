package artifact

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"roadcrash/internal/data"
	"roadcrash/internal/mining/tree"
)

// synthArtifact trains a decision tree on the synthetic dataset and wraps
// it as an artifact.
func synthArtifact(t *testing.T, ds *data.Dataset) *Artifact {
	t.Helper()
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("stream-tree", KindDecisionTree, dt, ds.Attrs(), 8, 7, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// sameScores requires bit-identical score slices (NaN == NaN).
func sameScores(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scored %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: chunked score %v, in-memory score %v", i, got[i], want[i])
		}
	}
}

// TestBatchScorerBitIdenticalToMapDataset pins the tentpole's equivalence
// claim at the unit level: for any chunk size, streaming a dataset through
// the batch scorer yields exactly the scores of the in-memory
// MapDataset + Score path.
func TestBatchScorerBitIdenticalToMapDataset(t *testing.T) {
	ds := synthDataset(t, 300, 13)
	a := synthArtifact(t, ds)
	scorer, err := a.Model()
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := mapper.MapDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := Score(scorer, rows)

	for _, chunk := range []int{1, 7, 64, 1000} {
		bs, err := NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		n, err := bs.ScoreAll(ds.Stream(chunk), func(b *data.Batch, scores []float64) error {
			got = append(got, scores...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != ds.Len() {
			t.Fatalf("chunk=%d: ScoreAll reported %d rows, want %d", chunk, n, ds.Len())
		}
		sameScores(t, got, want)
	}
}

// TestBatchScorerOverCSVStream drives the full out-of-core path — CSV
// batch reader into batch scorer — and compares against reading the same
// CSV in memory. Chunked nominal-level discovery must not change scores.
func TestBatchScorerOverCSVStream(t *testing.T) {
	ds := synthDataset(t, 250, 17)
	a := synthArtifact(t, ds)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	back, err := data.ReadCSV("back", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := a.Model()
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := mapper.MapDataset(back)
	if err != nil {
		t.Fatal(err)
	}
	want := Score(scorer, rows)

	for _, chunk := range []int{3, 50, 10000} {
		br, err := data.NewCSVBatchReader(strings.NewReader(text), chunk)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		if _, err := bs.ScoreAll(br, func(b *data.Batch, scores []float64) error {
			got = append(got, scores...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sameScores(t, got, want)
	}
}

func TestBatchScorerSchemaHandling(t *testing.T) {
	ds := synthDataset(t, 200, 19)
	a := synthArtifact(t, ds)

	t.Run("absent and bookkeeping columns", func(t *testing.T) {
		// A stream carrying only x1 plus an extra column outside the model
		// schema: the extra is ignored, every other schema column scores as
		// missing — matching MapDataset's semantics.
		attrs := []data.Attribute{{Name: "x1", Kind: data.Interval}, {Name: "segment", Kind: data.Interval}}
		b := data.NewBatch(attrs, 4)
		b.AppendRow([]float64{0.5, 99})
		bs, err := NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := bs.ScoreBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		scorer, _ := a.Model()
		mapper, _ := NewRowMapper(a)
		row, err := mapper.MapValues(map[string]any{"x1": 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if want := scorer.PredictProb(row); scores[0] != want {
			t.Fatalf("partial-row score %v, MapValues score %v", scores[0], want)
		}
	})

	t.Run("unseen level scores as missing", func(t *testing.T) {
		attrs := []data.Attribute{{Name: "surface", Kind: data.Nominal, Levels: []string{"granite"}}}
		b := data.NewBatch(attrs, 2)
		b.AppendRow([]float64{0})
		bs, err := NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := bs.ScoreBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		scorer, _ := a.Model()
		mapper, _ := NewRowMapper(a)
		row, _ := mapper.MapValues(map[string]any{})
		if want := scorer.PredictProb(row); scores[0] != want {
			t.Fatalf("unseen-level score %v, all-missing score %v", scores[0], want)
		}
	})

	t.Run("kind conflict", func(t *testing.T) {
		attrs := []data.Attribute{{Name: "surface", Kind: data.Interval}}
		b := data.NewBatch(attrs, 2)
		b.AppendRow([]float64{1})
		bs, err := NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bs.ScoreBatch(b); err == nil {
			t.Fatal("expected a kind-conflict error")
		}
	})

	t.Run("binary out of range", func(t *testing.T) {
		attrs := []data.Attribute{{Name: "wet", Kind: data.Interval}}
		b := data.NewBatch(attrs, 2)
		b.AppendRow([]float64{3})
		bs, err := NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bs.ScoreBatch(b); err == nil {
			t.Fatal("expected a binary range error")
		}
	})

	t.Run("width change mid-stream", func(t *testing.T) {
		bs, err := NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		b1 := data.NewBatch([]data.Attribute{{Name: "x1", Kind: data.Interval}}, 2)
		b1.AppendRow([]float64{1})
		if _, err := bs.ScoreBatch(b1); err != nil {
			t.Fatal(err)
		}
		b2 := data.NewBatch([]data.Attribute{{Name: "x1", Kind: data.Interval}, {Name: "x2", Kind: data.Interval}}, 2)
		b2.AppendRow([]float64{1, 2})
		if _, err := bs.ScoreBatch(b2); err == nil {
			t.Fatal("expected a schema-change error")
		}
	})
}

// TestBatchScorerLevelGrowth feeds a stream whose nominal level set grows
// between batches and checks the remap extension keeps scores equal to the
// in-memory path over the concatenated rows.
func TestBatchScorerLevelGrowth(t *testing.T) {
	ds := synthDataset(t, 200, 23)
	a := synthArtifact(t, ds)
	// Rows ordered so the later training levels only appear in later
	// chunks; chunk=1 forces a remap refresh per row.
	in := "surface:nominal,x1\nseal,0.1\nseal,-2\ngravel,0.5\nconcrete,1.5\nmystery,0\n"
	back, err := data.ReadCSV("in", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	scorer, _ := a.Model()
	mapper, _ := NewRowMapper(a)
	rows, err := mapper.MapDataset(back)
	if err != nil {
		t.Fatal(err)
	}
	want := Score(scorer, rows)

	br, err := data.NewCSVBatchReader(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewBatchScorer(a)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	if _, err := bs.ScoreAll(br, func(b *data.Batch, scores []float64) error {
		got = append(got, scores...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameScores(t, got, want)
}
