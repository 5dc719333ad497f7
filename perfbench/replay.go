package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/compiled"
	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/serve"
)

// streamChunk is the serving tier's /score/stream chunk size: the batches
// the stream handler parses and scores.
const streamChunk = 1024

const (
	// replayTarget is how long the interleaved replay loop runs.
	replayTarget = time.Second
	// allocRuns is how many calls each stage's allocation count averages.
	allocRuns = 64
	// replayBodies bounds the bodies the replay cycles through, so that
	// every stage sees the same rows.
	replayBodies = 64
)

// cost is one replayed call's median time and mean heap allocations per
// request.
type cost struct{ us, allocs float64 }

// stage is one replayed call: prep readies call i untimed, op is the timed
// call, and check compares op's answer with the reference.
type stage struct {
	prep  func(i int)
	op    func(i int)
	check func(i int) error
}

func noPrep(int) {}

// replayer times the public functions of each layer on the workload's own
// bodies, on one goroutine, against a freshly loaded registry.
type replayer struct {
	w       workload
	in      *inputs
	n       int // bodies replayed
	tree    *serve.Model
	checked int64 // answers compared with the reference
	failed  int64
	errs    []string
}

func (r *replayer) check(err error) {
	r.checked++
	if err != nil {
		r.failed++
		if len(r.errs) < 3 {
			r.errs = append(r.errs, "replay: "+err.Error())
		}
	}
}

// measure runs the stages in turn on each body for about replayTarget, so
// that drift spreads evenly over them, and takes each stage's median call,
// so that a collection or preemption landing in one call does not skew the
// differences between stages. A first, untimed pass warms every call and
// checks its answers. Allocations are counted per stage over allocRuns
// calls, minus allocRuns calls of prep alone.
func (r *replayer) measure(stages []stage) []cost {
	warm := time.Now()
	k := 0
	for ; k < 8 || time.Since(warm) < replayTarget/10; k++ {
		for _, s := range stages {
			s.prep(k)
			s.op(k)
			r.check(s.check(k))
		}
	}
	per := time.Since(warm) / time.Duration(k)
	n := min(max(int(replayTarget/max(per, time.Microsecond)), allocRuns), 200000)

	calls := make([][]float64, len(stages)) // microseconds per call
	for j := range calls {
		calls[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j, s := range stages {
			s.prep(i)
			t := time.Now()
			s.op(i)
			calls[j][i] = time.Since(t).Seconds() * 1e6
		}
	}
	out := make([]cost, len(stages))
	for j, s := range stages {
		base := mallocs()
		for i := 0; i < allocRuns; i++ {
			s.prep(i)
		}
		base = mallocs() - base
		total := mallocs()
		for i := 0; i < allocRuns; i++ {
			s.prep(i)
			s.op(i)
		}
		total = mallocs() - total
		out[j] = cost{
			us:     median(calls[j]),
			allocs: float64(int64(total)-int64(base)) / allocRuns,
		}
	}
	return out
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (r *replayer) body(i int) int { return i % r.n }

// handler replays the workload's primary request through
// Server.ServeHTTP on an httptest.ResponseRecorder.
func (r *replayer) handler(srv *serve.Server) stage {
	var req *http.Request
	var rec *httptest.ResponseRecorder
	return stage{
		prep: func(i int) {
			if r.in.bodies == nil {
				req = httptest.NewRequest(http.MethodGet, r.w.path, nil)
			} else {
				req = httptest.NewRequest(http.MethodPost, r.w.path, bytes.NewReader(r.in.bodies[r.body(i)]))
			}
			rec = httptest.NewRecorder()
			rec.Body.Grow(r.w.respBytes)
		},
		op: func(int) { srv.ServeHTTP(rec, req) },
		check: func(i int) error {
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d", r.w.path, rec.Code)
			}
			switch {
			case r.in.bodies == nil:
				return checkCells(rec.Body.Bytes(), r.in.cells)
			case r.w.stream:
				return checkStream(rec.Body.Bytes(), r.in.refs[r.body(i)])
			default:
				return checkScore(rec.Body.Bytes(), r.in.refs[r.body(i)])
			}
		},
	}
}

// feedback replays score-feedback's order on srv: body i is scored
// (untimed), then the labels of the body scored labelLag calls earlier are
// posted (timed).
func (r *replayer) feedback(srv *serve.Server) stage {
	var req *http.Request
	var rec *httptest.ResponseRecorder
	labelled := func(i int) int { return r.body(i + r.n - labelLag) }
	return stage{
		prep: func(i int) {
			score := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(r.in.bodies[r.body(i)]))
			srv.ServeHTTP(httptest.NewRecorder(), score)
			req = httptest.NewRequest(http.MethodPost, "/feedback", bytes.NewReader(r.in.labels[labelled(i)]))
			rec = httptest.NewRecorder()
		},
		op: func(int) { srv.ServeHTTP(rec, req) },
		check: func(i int) error {
			if rec.Code != http.StatusOK {
				return fmt.Errorf("/feedback: status %d", rec.Code)
			}
			_, err := checkFeedback(rec.Body.Bytes(), len(r.in.refs[labelled(i)]))
			return err
		},
	}
}

// schema is the attribute list the serving tier parses this workload's
// rows into: the training schema, plus segment_id in feedback mode.
func (r *replayer) schema() []data.Attribute {
	attrs := r.tree.Mapper.Attrs()
	if r.w.feedback {
		attrs = append(append([]data.Attribute(nil), attrs...), data.Attribute{Name: "segment_id", Kind: data.Interval})
	}
	return attrs
}

// parse replays the data layer: data.ParseScoreRequest on /score bodies,
// or an NDJSONBatchReader drained on /score/stream bodies.
func (r *replayer) parse() stage {
	attrs := r.schema()
	var rows int
	var err error
	check := func(int) error {
		if err == nil && rows != r.w.rows {
			err = fmt.Errorf("parse: %d rows, sent %d", rows, r.w.rows)
		}
		return err
	}
	if r.w.stream {
		var rd *data.NDJSONBatchReader
		return stage{
			prep: func(i int) {
				rd = data.NewNDJSONBatchReader(bytes.NewReader(r.in.bodies[r.body(i)]), attrs, streamChunk)
			},
			op: func(int) {
				rows, err = 0, nil
				for {
					b, e := rd.Next()
					if e != nil {
						if e != io.EOF {
							err = e
						}
						return
					}
					rows += b.Len()
				}
			},
			check: check,
		}
	}
	parser := data.NewScoreRequestParser(attrs)
	resolve := func(string) (*data.ScoreRequestParser, error) { return parser, nil }
	return stage{
		prep: noPrep,
		op: func(i int) {
			var b *data.Batch
			_, b, err = data.ParseScoreRequest(r.in.bodies[r.body(i)], serve.MaxBatch, resolve)
			if err == nil {
				rows = b.Len()
			}
		},
		check: check,
	}
}

// batches parses the replayed bodies into the batches the serving tier
// would score: one per /score body, streamChunk-row chunks per
// /score/stream body. The copies share one schema, as the batches of one
// stream do.
func (r *replayer) batches() ([][]*data.Batch, error) {
	n := r.n
	attrs := r.schema()
	out := make([][]*data.Batch, n)
	keep := func(i int, b *data.Batch) {
		c := data.NewBatch(b.Attrs(), b.Len())
		row := make([]float64, len(b.Attrs()))
		for k := 0; k < b.Len(); k++ {
			for j := range row {
				row[j] = b.At(k, j)
			}
			c.AppendRow(row)
		}
		out[i] = append(out[i], c)
	}
	if r.w.stream {
		all := bytes.Join(r.in.bodies[:n], nil)
		rd := data.NewNDJSONBatchReader(bytes.NewReader(all), attrs, streamChunk)
		for k := 0; ; k++ {
			b, err := rd.Next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, err
			}
			keep(k*streamChunk/r.w.rows, b)
		}
	}
	parser := data.NewScoreRequestParser(attrs)
	resolve := func(string) (*data.ScoreRequestParser, error) { return parser, nil }
	for i := 0; i < n; i++ {
		_, b, err := data.ParseScoreRequest(r.in.bodies[i], serve.MaxBatch, resolve)
		if err != nil {
			return nil, err
		}
		keep(i, b)
	}
	return out, nil
}

// scoring replays artifact.BatchScorer.ScoreBatch (mapping plus compiled
// scoring) and the compiled layer's ScoreColumns alone on the same rows.
// The body index of both stages runs over the parsed batches.
func (r *replayer) scoring(batches [][]*data.Batch) (batch, columns stage, err error) {
	nb := len(batches)
	// agree compares body i's scores, batch by batch, with the reference.
	agree := func(i int, score func(k int) ([]float64, error)) error {
		ref := r.in.refs[i]
		at := 0
		for k := range batches[i] {
			got, err := score(k)
			if err != nil {
				return err
			}
			for _, v := range got {
				if at >= len(ref) || math.Float64bits(v) != math.Float64bits(ref[at]) {
					return fmt.Errorf("body %d row %d: replayed risk differs from the reference", i, at)
				}
				at++
			}
		}
		if at != len(ref) {
			return fmt.Errorf("body %d: %d replayed risks, %d rows", i, at, len(ref))
		}
		return nil
	}

	bs := artifact.NewBatchScorerFor(r.tree.Scorer, r.tree.Mapper)
	batch = stage{
		prep: noPrep,
		op: func(i int) {
			for _, b := range batches[i%nb] {
				bs.ScoreBatch(b)
			}
		},
		check: func(i int) error {
			i %= nb
			return agree(i, func(k int) ([]float64, error) { return bs.ScoreBatch(batches[i][k]) })
		},
	}

	cs, ok := compiled.Columnar(r.tree.Scorer)
	if !ok {
		return batch, columns, fmt.Errorf("%s has no columnar form", treeModel)
	}
	// The parsed batches hold the training schema's columns first, in
	// schema order, which is the layout ScoreColumns reads.
	width := r.tree.Mapper.Width()
	cols := make([][][][]float64, nb)
	outs := make([][][]float64, nb)
	for i, bb := range batches {
		for _, b := range bb {
			c := make([][]float64, width)
			for j := range c {
				c[j] = b.Col(j)
			}
			cols[i] = append(cols[i], c)
			outs[i] = append(outs[i], make([]float64, b.Len()))
		}
	}
	columns = stage{
		prep: noPrep,
		op: func(i int) {
			i %= nb
			for k, c := range cols[i] {
				cs.ScoreColumns(c, outs[i][k])
			}
		},
		check: func(i int) error {
			i %= nb
			return agree(i, func(k int) ([]float64, error) { return outs[i][k], nil })
		},
	}
	return batch, columns, nil
}

// topCells replays geo.Model.TopCells on the served surface.
func (r *replayer) topCells(gm *geo.Model) stage {
	var got []geo.CellRisk
	return stage{
		prep: noPrep,
		op:   func(int) { got = gm.TopCells(hotspotK) },
		check: func(int) error {
			if len(got) != len(r.in.cells) {
				return fmt.Errorf("replayed TopCells returned %d cells, reference %d", len(got), len(r.in.cells))
			}
			for i, c := range got {
				if c != r.in.cells[i] {
					return fmt.Errorf("replayed TopCells cell %d is %+v, reference %+v", i, c, r.in.cells[i])
				}
			}
			return nil
		},
	}
}
