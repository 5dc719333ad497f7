package compiled_test

import (
	"math"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/compiled"
	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/mining/bayes"
	"roadcrash/internal/mining/ensemble"
	"roadcrash/internal/mining/logit"
	"roadcrash/internal/mining/m5"
	"roadcrash/internal/mining/neural"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/mining/zinb"
	"roadcrash/internal/rng"
	"roadcrash/internal/roadnet"
)

// trainDataset builds a mixed-kind training set whose attribute names
// overlap the roadnet scenario schema, so the stream differential can
// drive trained models with live ScenarioStream traffic. The surface
// attribute deliberately trains on only two of the three scenario levels:
// "concrete" rows arriving from a stream are unseen levels and must score
// as missing on both engines. crash_count carries the same signal as a
// count — zero on quiet segments, growing with the score — with a few
// missing cells, so the zinb hurdle has both components to fit.
func trainDataset(n int, seed uint64) *data.Dataset {
	r := rng.New(seed)
	b := data.NewBuilder("compile-train").
		Interval(roadnet.AttrAADT).
		Interval(roadnet.AttrSealAge).
		Nominal(roadnet.AttrSurface, "asphalt", "spray-seal").
		Binary(roadnet.AttrWetCrash).
		Binary("label").
		Interval("label_num").
		Interval(roadnet.CrashCountAttr)
	for i := 0; i < n; i++ {
		aadt := 500 + 4000*r.Float64()
		age := 25 * r.Float64()
		surface := float64(r.Intn(2))
		wet := float64(r.Intn(2))
		score := aadt/1000 + 0.2*age + 0.8*surface + 0.5*wet + r.Normal(0, 0.7)
		label := 0.0
		if score > 3.4 {
			label = 1
		}
		count := math.Floor(score) - 4
		if count < 0 {
			count = 0
		}
		if r.Float64() < 0.06 {
			age = data.Missing
		}
		if r.Float64() < 0.06 {
			surface = data.Missing
		}
		if r.Float64() < 0.04 {
			count = data.Missing
		}
		b.Row(aadt, age, surface, wet, label, label, count)
	}
	return b.Build()
}

// learners fits one model per artifact learner kind on the training set.
func learners(t testing.TB, ds *data.Dataset) map[artifact.Kind]artifact.Scorer {
	t.Helper()
	binCol := ds.MustAttrIndex("label")
	numCol := ds.MustAttrIndex("label_num")
	feats := []int{0, 1, 2, 3}

	tCfg := tree.DefaultConfig()
	tCfg.MinLeaf = 10
	tCfg.Features = feats
	dt, err := tree.Grow(ds, binCol, tCfg)
	if err != nil {
		t.Fatalf("decision tree: %v", err)
	}
	rt, err := tree.GrowRegression(ds, numCol, tCfg)
	if err != nil {
		t.Fatalf("regression tree: %v", err)
	}
	nbCfg := bayes.DefaultConfig()
	nbCfg.Features = feats
	nb, err := bayes.Train(ds, binCol, nbCfg)
	if err != nil {
		t.Fatalf("naive bayes: %v", err)
	}
	lrCfg := logit.DefaultConfig()
	lrCfg.Exclude = []string{"label_num", roadnet.CrashCountAttr}
	lr, err := logit.Train(ds, binCol, lrCfg)
	if err != nil {
		t.Fatalf("logit: %v", err)
	}
	bagCfg := ensemble.DefaultBaggingConfig()
	bagCfg.Trees = 5
	bagCfg.Tree = tCfg
	bag, err := ensemble.TrainBagging(ds, binCol, bagCfg)
	if err != nil {
		t.Fatalf("bagging: %v", err)
	}
	adaCfg := ensemble.DefaultAdaBoostConfig()
	adaCfg.Rounds = 5
	adaCfg.Tree.MinLeaf = 10
	adaCfg.Tree.Features = feats
	ada, err := ensemble.TrainAdaBoost(ds, binCol, adaCfg)
	if err != nil {
		t.Fatalf("adaboost: %v", err)
	}
	zbCfg := zinb.DefaultConfig()
	zbCfg.Exclude = []string{"label", "label_num"}
	zb, err := zinb.Train(ds, ds.MustAttrIndex(roadnet.CrashCountAttr), zbCfg)
	if err != nil {
		t.Fatalf("zinb: %v", err)
	}
	m5Cfg := m5.DefaultConfig()
	m5Cfg.Tree = tCfg
	m5Cfg.Exclude = []string{"label", roadnet.CrashCountAttr}
	mt, err := m5.Train(ds, numCol, m5Cfg)
	if err != nil {
		t.Fatalf("m5: %v", err)
	}
	nnCfg := neural.DefaultConfig()
	nnCfg.Epochs = 10
	nnCfg.Exclude = []string{"label_num", roadnet.CrashCountAttr}
	nn, err := neural.Train(ds, binCol, nnCfg)
	if err != nil {
		t.Fatalf("neural: %v", err)
	}
	return map[artifact.Kind]artifact.Scorer{
		artifact.KindDecisionTree:   dt,
		artifact.KindRegressionTree: rt,
		artifact.KindNaiveBayes:     nb,
		artifact.KindLogistic:       lr,
		artifact.KindBagging:        bag,
		artifact.KindAdaBoost:       ada,
		artifact.KindZINB:           zb.Thresholded(2),
		artifact.KindM5:             mt,
		artifact.KindNeural:         nn,
	}
}

// probeRows builds a grid over the full input space: every combination of
// present/missing interval values, every trained nominal level plus
// missing, both binary values plus missing.
func probeRows() [][]float64 {
	var rows [][]float64
	for _, aadt := range []float64{300, 1800, 4400, data.Missing} {
		for _, age := range []float64{0.5, 12, 30, data.Missing} {
			for surface := -1; surface < 2; surface++ {
				sv := float64(surface)
				if surface < 0 {
					sv = data.Missing
				}
				for _, wet := range []float64{0, 1, data.Missing} {
					rows = append(rows, []float64{aadt, age, sv, wet, data.Missing, data.Missing, data.Missing})
				}
			}
		}
	}
	return rows
}

// transpose lays rows out as schema-ordered columns.
func transpose(rows [][]float64) [][]float64 {
	cols := make([][]float64, len(rows[0]))
	for j := range cols {
		cols[j] = make([]float64, len(rows))
		for i, row := range rows {
			cols[j][i] = row[j]
		}
	}
	return cols
}

func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestCompiledBitIdenticalOnProbes pins the compile contract per learner
// kind: over the whole probe grid — missing values in every attribute
// kind included — the compiled scorer's PredictProb and ScoreColumns both
// reproduce the interpreted model's probability down to the float bits.
func TestCompiledBitIdenticalOnProbes(t *testing.T) {
	ds := trainDataset(600, 11)
	rows := probeRows()
	cols := transpose(rows)
	for kind, interp := range learners(t, ds) {
		cs, err := compiled.Compile(interp)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out := make([]float64, len(rows))
		cs.ScoreColumns(cols, out)
		for i, row := range rows {
			want := interp.PredictProb(row)
			if got := cs.PredictProb(row); !bitEqual(got, want) {
				t.Errorf("%s: probe %d: compiled PredictProb %v, interpreted %v", kind, i, got, want)
			}
			if !bitEqual(out[i], want) {
				t.Errorf("%s: probe %d: ScoreColumns %v, interpreted %v", kind, i, out[i], want)
			}
		}
	}
}

// TestCompileDispatch pins the lowering table: every artifact learner kind
// compiles to a columnar scorer, compiling twice is a no-op, and a scorer
// the compiler has no compiled form for is an error (Compile is total: it
// never hands back a scorer without a columnar engine).
func TestCompileDispatch(t *testing.T) {
	ds := trainDataset(600, 11)
	for kind, interp := range learners(t, ds) {
		c, err := compiled.Compile(interp)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if again, err := compiled.Compile(c); err != nil || again != c {
			t.Errorf("%s: compiling a compiled scorer must be a no-op (got %T, %v)", kind, again, err)
		}
	}
	plain := constScorer(0.25)
	if got, err := compiled.Compile(plain); err == nil || got != nil {
		t.Errorf("unknown scorer compiled to %T without an error", got)
	}
	if _, ok := compiled.Columnar(plain); ok {
		t.Error("plain scorer claims a columnar engine")
	}
}

// constScorer is an opaque learner the compiler has no lowering for.
type constScorer float64

func (c constScorer) PredictProb([]float64) float64 { return float64(c) }

// scenarioStream is n rows of scenario traffic in chunks of the given
// size. Every call with the same n yields identical rows at any chunk
// size, so the in-memory reference and the batch scorer see the same
// traffic.
func scenarioStream(t *testing.T, n, chunk int) data.BatchReader {
	t.Helper()
	opt := roadnet.DefaultScenarioOptions(n)
	opt.ChunkSize = chunk
	opt.Seed = 77
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// interpretedScores is the differential's reference: the interpreted
// learner's PredictProb over RowMapper.MapDataset's in-memory layout of
// the rows, the path that shares no code with the compiled engines.
func interpretedScores(t *testing.T, a *artifact.Artifact, interp artifact.Scorer, ds *data.Dataset) []float64 {
	t.Helper()
	mapper, err := artifact.NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := mapper.MapDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	return artifact.Score(interp, rows)
}

// scenarioScores streams n rows of scenario traffic through a batch
// scorer at the given chunk size and returns every score.
func scenarioScores(t *testing.T, bs *artifact.BatchScorer, n, chunk int) []float64 {
	t.Helper()
	var out []float64
	total, err := bs.ScoreAll(scenarioStream(t, n, chunk), func(b *data.Batch, scores []float64) error {
		out = append(out, scores...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("scored %d rows, want %d", total, n)
	}
	return out
}

// TestCompiledStreamDifferential is the end-to-end equivalence sweep: for
// every learner kind, live ScenarioStream traffic — wet/dry regimes,
// injected missing values, the unseen "concrete" surface level — scored
// through the compiled columnar batch scorer must agree bit for bit with
// the interpreted learner over the same rows read into memory
// (data.ReadAll, RowMapper.MapDataset, artifact.Score), at every chunk
// size from 1 to 2^20 (the last exceeding the row count, so one batch
// carries the whole stream).
func TestCompiledStreamDifferential(t *testing.T) {
	ds := trainDataset(600, 11)
	schema := ds.Attrs()
	const rows = 3000
	traffic, err := data.ReadAll("scenario", scenarioStream(t, rows, 1024))
	if err != nil {
		t.Fatal(err)
	}
	for kind, interp := range learners(t, ds) {
		// The zinb payload carries its own count boundary (t = 2 from
		// learners); keep the header threshold in agreement.
		thr := 8
		if kind == artifact.KindZINB {
			thr = 2
		}
		a, err := artifact.New("diff", kind, interp, schema, thr, 1, "label", nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want := interpretedScores(t, a, interp, traffic)
		if len(want) != rows {
			t.Fatalf("%s: reference scored %d rows, want %d", kind, len(want), rows)
		}
		for _, chunk := range []int{1, 7, 64, 1024, 1 << 20} {
			bs, err := artifact.NewBatchScorer(a)
			if err != nil {
				t.Fatal(err)
			}
			got := scenarioScores(t, bs, rows, chunk)
			for i := range got {
				if !bitEqual(got[i], want[i]) {
					t.Fatalf("%s chunk=%d row %d: compiled %v, interpreted %v", kind, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCompiledBatchScorerErrorsMatch pins the mapping-error contract of
// the columnar path: a binary attribute carrying a non-0/1 value must be
// reported with the row position RowMapper.MapDataset reports over the
// whole feed, including across chunks (absolute row numbers) and when a
// lower-indexed row in a later column is the first offender.
func TestCompiledBatchScorerErrorsMatch(t *testing.T) {
	ds := trainDataset(600, 11)
	interp := learners(t, ds)[artifact.KindDecisionTree]
	a, err := artifact.New("err", artifact.KindDecisionTree, interp, ds.Attrs(), 8, 1, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The feed declares the binary schema columns as interval so invalid
	// 0/1 values reach the scorer's own validation (the direct binding
	// accepts any non-nominal feed kind for a binary schema column).
	feed := data.NewBuilder("feed").
		Interval(roadnet.AttrAADT).
		Interval(roadnet.AttrWetCrash).
		Interval("label")
	feed.Row(100, 0, 0)
	feed.Row(200, 1, 0)
	feed.Row(300, 3, 0) // bad wet_crash at absolute row 2
	feed.Row(400, 0, 5) // bad label at row 3 — later, must not win
	fd := feed.Build()

	mapper, err := artifact.NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}
	_, errRef := mapper.MapDataset(fd)
	if errRef == nil {
		t.Fatal("MapDataset accepted a bad binary value")
	}
	for _, chunk := range []int{1, 2, 100} {
		bs, err := artifact.NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		_, errC := bs.ScoreAll(fd.Stream(chunk), nil)
		if errC == nil {
			t.Fatalf("chunk=%d: bad binary value not rejected", chunk)
		}
		if errC.Error() != errRef.Error() {
			t.Fatalf("chunk=%d: MapDataset error %q, batch scorer error %q", chunk, errRef, errC)
		}
	}
}

// TestCompileHotspotPassThrough pins the hotspot surface's compiled form:
// the flat per-cell array is its own columnar engine, so Compile passes it
// through unchanged and the columnar view scores bit-identically to the
// row path.
func TestCompileHotspotPassThrough(t *testing.T) {
	g, err := geo.NewGrid(0, 0, 12, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := &geo.Model{
		Grid:   g,
		Method: geo.MethodPersistence,
		Risk:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	}
	cs, err := compiled.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if cs != compiled.ColumnScorer(m) {
		t.Fatalf("hotspot model was not passed through: %T", cs)
	}
	xs := []float64{1, 5, 9, 50, math.NaN()}
	ys := []float64{1, 5, 9, 1, 1}
	out := make([]float64, len(xs))
	cs.ScoreColumns([][]float64{xs, ys}, out)
	for i := range xs {
		if want := m.PredictProb([]float64{xs[i], ys[i]}); out[i] != want {
			t.Fatalf("row %d: columnar %v vs row %v", i, out[i], want)
		}
	}
}
