package artifact

import (
	"fmt"
	"io"

	"roadcrash/internal/compiled"
	"roadcrash/internal/data"
)

// BatchScorer is the out-of-core scoring path: it maps columnar batches
// into the model's training schema and scores them without ever
// materializing a Dataset. The mapping semantics are exactly RowMapper's —
// columns matched by name, absent schema columns scored as missing,
// nominal levels re-indexed by name with unseen levels treated as missing
// — so chunked scores are bit-identical to MapDataset + Score over the
// same rows.
//
// It scores with the learner's compiled form: each batch is mapped
// column-wise into reused schema-ordered buffers and scored in one
// ScoreColumns call — no per-row map, no per-row buffer fill, zero
// allocations in steady state.
//
// A BatchScorer carries per-stream binding state and must not be shared
// across goroutines or fed interleaved streams; build one per stream
// (construction is cheap next to decoding the artifact).
type BatchScorer struct {
	mapper *RowMapper
	cs     compiled.ColumnScorer

	// bindings maps each model schema column to its source in the stream
	// schema; built on the first batch, refreshed when nominal level sets
	// grow.
	bindings []binding
	bound    bool
	srcAttrs []data.Attribute

	mapped [][]float64 // reused schema-ordered columns
	out    []float64
	rows   int // rows scored so far, for error positions
}

// binding is one model schema column's source in the stream schema.
type binding struct {
	src    int       // stream column index, -1 when absent (always missing)
	direct bool      // interval/binary pass-through
	binary bool      // schema wants 0/1: anything else is an error
	remap  []float64 // nominal: stream level index -> model level value
}

// NewBatchScorer decodes the artifact's model, compiles it and prepares a
// batch scorer for it.
func NewBatchScorer(a *Artifact) (*BatchScorer, error) {
	scorer, err := a.Model()
	if err != nil {
		return nil, err
	}
	cs, err := compiled.Compile(scorer)
	if err != nil {
		return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
	}
	mapper, err := NewRowMapper(a)
	if err != nil {
		return nil, err
	}
	return NewBatchScorerFor(cs, mapper), nil
}

// NewBatchScorerFor wraps an already-compiled model and its row mapper —
// the constructor for callers that hold both, like the scoring service's
// model registry.
func NewBatchScorerFor(cs compiled.ColumnScorer, mapper *RowMapper) *BatchScorer {
	return &BatchScorer{
		mapper: mapper,
		cs:     cs,
		mapped: make([][]float64, mapper.Width()),
	}
}

// Mapper returns the row mapper aligning stream columns to the model
// schema.
func (bs *BatchScorer) Mapper() *RowMapper { return bs.mapper }

// bind resolves each model schema column against the stream schema. Stream
// columns outside the schema are ignored (feeds carry bookkeeping columns
// like segment ids); a stream column whose kind conflicts with the schema
// is an error, as in RowMapper.MapDataset.
func (bs *BatchScorer) bind(attrs []data.Attribute) error {
	bs.bindings = make([]binding, bs.mapper.Width())
	for j := range bs.bindings {
		bs.bindings[j] = binding{src: -1}
	}
	for inJ, inAttr := range attrs {
		j, ok := bs.mapper.byName[inAttr.Name]
		if !ok {
			continue
		}
		want := bs.mapper.attrs[j]
		bd := binding{src: inJ}
		switch {
		case want.Kind == data.Nominal && inAttr.Kind == data.Nominal:
			// remap is filled lazily by refreshRemaps so level growth
			// between batches extends it in place.
		case want.Kind != data.Nominal && inAttr.Kind != data.Nominal:
			bd.direct = true
			bd.binary = want.Kind == data.Binary
		default:
			return fmt.Errorf("artifact: column %q is %s in the input but %s in the model schema",
				inAttr.Name, inAttr.Kind, want.Kind)
		}
		bs.bindings[j] = bd
	}
	bs.srcAttrs = attrs
	bs.bound = true
	return nil
}

// refreshRemaps extends the nominal level remap tables to cover levels the
// stream schema has discovered since the last batch.
func (bs *BatchScorer) refreshRemaps() {
	for j := range bs.bindings {
		bd := &bs.bindings[j]
		if bd.src < 0 || bd.direct {
			continue
		}
		levels := bs.srcAttrs[bd.src].Levels
		for l := len(bd.remap); l < len(levels); l++ {
			if t, ok := bs.mapper.levelIndex[j][levels[l]]; ok {
				bd.remap = append(bd.remap, float64(t))
			} else {
				bd.remap = append(bd.remap, data.Missing)
			}
		}
	}
}

// ScoreBatch maps and scores every row of the batch. The returned slice is
// reused on the next call. Batches must all come from one stream: the
// first batch fixes the column bindings, later batches may only grow
// nominal level sets.
func (bs *BatchScorer) ScoreBatch(b *data.Batch) ([]float64, error) {
	attrs := b.Attrs()
	if !bs.bound {
		if err := bs.bind(attrs); err != nil {
			return nil, err
		}
	} else if len(attrs) != len(bs.srcAttrs) {
		return nil, fmt.Errorf("artifact: stream schema changed mid-stream: %d columns, bound to %d", len(attrs), len(bs.srcAttrs))
	}
	bs.srcAttrs = attrs
	bs.refreshRemaps()

	n := b.Len()
	if cap(bs.out) < n {
		bs.out = make([]float64, n)
	}
	bs.out = bs.out[:n]
	if err := bs.mapColumns(b, n); err != nil {
		return nil, err
	}
	bs.cs.ScoreColumns(bs.mapped, bs.out)
	bs.rows += n
	return bs.out, nil
}

// mapColumns lays the batch out as schema-ordered columns in the reused
// mapped buffers. Binary validation reports the row RowMapper.MapDataset
// reports: the lowest bad row, breaking ties on the lowest schema column
// (a column with an earlier bad row would have made that row the lowest).
func (bs *BatchScorer) mapColumns(b *data.Batch, n int) error {
	errRow, errCol := -1, -1
	for j := range bs.bindings {
		bd := &bs.bindings[j]
		if cap(bs.mapped[j]) < n {
			bs.mapped[j] = make([]float64, n)
		}
		col := bs.mapped[j][:n]
		bs.mapped[j] = col
		switch {
		case bd.src < 0:
			for i := range col {
				col[i] = data.Missing
			}
		case bd.direct:
			src := b.Col(bd.src)
			copy(col, src[:n])
			if bd.binary {
				for i, v := range col {
					if !data.IsMissing(v) && v != 0 && v != 1 {
						if errRow < 0 || i < errRow {
							errRow, errCol = i, j
						}
						break
					}
				}
			}
		default:
			src := b.Col(bd.src)
			remap := bd.remap
			for i := 0; i < n; i++ {
				v := src[i]
				if data.IsMissing(v) || int(v) < 0 || int(v) >= len(remap) {
					col[i] = data.Missing
				} else {
					col[i] = remap[int(v)]
				}
			}
		}
	}
	if errRow >= 0 {
		bd := &bs.bindings[errCol]
		return fmt.Errorf("artifact: row %d: binary attribute %q got %v",
			bs.rows+errRow, bs.mapper.attrs[errCol].Name, b.At(errRow, bd.src))
	}
	return nil
}

// ScoreAll drains a batch reader through the scorer, calling emit once per
// batch with the batch and its scores (both only valid during the call).
// It returns the total number of rows scored.
func (bs *BatchScorer) ScoreAll(br data.BatchReader, emit func(b *data.Batch, scores []float64) error) (int, error) {
	total := 0
	for {
		b, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		scores, err := bs.ScoreBatch(b)
		if err != nil {
			return total, err
		}
		if emit != nil {
			if err := emit(b, scores); err != nil {
				return total, err
			}
		}
		total += b.Len()
	}
	return total, nil
}
