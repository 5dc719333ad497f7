package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	if got := g.Inc(); got != 1 {
		t.Fatalf("gauge Inc = %d, want 1", got)
	}
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d, want -7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-105.5) > 1e-9 {
		t.Fatalf("sum = %v, want 105.5", got)
	}
	// Bucket layout: (-inf,1]=2, (1,2]=1, (2,4]=1, +Inf=1. An observation
	// on a bound belongs to that bound's bucket.
	h.Observe(2)
	for i, want := range []uint64{2, 2, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "x", "model")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name must panic")
		}
	}()
	r.Gauge("x_total", "again")
}

func TestVecLabelWidthPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("a_total", "a", "model")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count must panic")
		}
	}()
	v.With("m", "extra")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("in_flight", "in-flight")
	// A vector without label keys renders like a plain histogram.
	h := r.HistogramVec("latency_seconds", "latency", []float64{0.1, 1}).With()
	cv := r.CounterVec("model_reqs_total", "per model", "model", "endpoint")
	hv := r.HistogramVec("model_latency_seconds", "per model latency", []float64{1}, "model")

	g.Set(2)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	cv.With("tree", "score").Add(7)
	cv.With("bayes", "stream").Inc()
	cv.With(`we"ird\mo`+"\n"+`del`, "score").Inc()
	hv.With("tree").Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP in_flight in-flight",
		"# TYPE in_flight gauge",
		"in_flight 2",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 5.55",
		"latency_seconds_count 3",
		"# TYPE model_reqs_total counter",
		`model_reqs_total{model="tree",endpoint="score"} 7`,
		`model_reqs_total{model="bayes",endpoint="stream"} 1`,
		`model_reqs_total{model="we\"ird\\mo\ndel",endpoint="score"} 1`,
		`model_latency_seconds_bucket{model="tree",le="1"} 1`,
		`model_latency_seconds_bucket{model="tree",le="+Inf"} 1`,
		`model_latency_seconds_count{model="tree"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Vec series render sorted by label values: bayes before tree.
	if strings.Index(out, `model="bayes"`) > strings.Index(out, `model="tree",endpoint=`) {
		t.Error("vec series not sorted by label values")
	}
}

// TestNULLabelValuesCannotForgeSeries pins the label-key sanitization: a
// value containing the internal NUL separator must neither collide with a
// legitimately-keyed series nor desynchronize the rendered label list.
func TestNULLabelValuesCannotForgeSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("f_total", "f", "model", "endpoint")
	v.With("a\x00x", "score").Add(5)
	v.With("a", "x\x00score").Add(7)
	v.With("a", "score").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`f_total{model="a�x",endpoint="score"} 5`,
		`f_total{model="a",endpoint="x�score"} 7`,
		`f_total{model="a",endpoint="score"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

// TestConcurrentRecording hammers every metric type from many goroutines
// while rendering — run under -race this pins the lock-cheap hot path.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "g")
	cv := r.CounterVec("cv_total", "cv", "model")
	hv := r.HistogramVec("hv_seconds", "hv", nil, "model")

	const goroutines, iters = 8, 500
	models := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				g.Inc()
				g.Dec()
				cv.With(models[k%len(models)]).Inc()
				hv.With(models[(i+k)%len(models)]).Observe(float64(k) / 1000)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			for k := 0; k < 50; k++ {
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				b.Reset()
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	total, observed := uint64(0), uint64(0)
	for _, m := range models {
		total += cv.With(m).Value()
		observed += hv.With(m).Count()
	}
	if total != goroutines*iters || observed != goroutines*iters {
		t.Fatalf("counter total %d, histogram count %d, want %d each", total, observed, goroutines*iters)
	}
}

// TestObserveNonFiniteIgnored is the regression test for the NaN
// corruption bug: Observe(NaN) used to land in the +Inf bucket (via
// sort.SearchFloat64s) and add int64(math.Round(NaN)) — min-int64 on
// amd64 — to the running sum, wrecking the exported _sum forever. A
// non-finite observation must now leave the histogram untouched.
func TestObserveNonFiniteIgnored(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.Observe(v)
	}
	if h.Count() != 0 {
		t.Fatalf("count after non-finite observations = %d, want 0", h.Count())
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("sum after non-finite observations = %v, want 0", got)
	}
	if n := h.counts[len(h.bounds)].Load(); n != 0 {
		t.Fatalf("+Inf bucket = %d, want 0", n)
	}
	// And valid observations after the garbage still record cleanly.
	h.Observe(0.5)
	h.Observe(math.NaN())
	h.Observe(1.5)
	if h.Count() != 2 || h.Sum() != 2 {
		t.Fatalf("count=%d sum=%v after mixed observations, want 2 and 2", h.Count(), h.Sum())
	}
}

// TestHistogramSumPrecision pins the two failure modes of the old
// int64-nanosecond sum: values below 1e-9 quantized to zero, and totals
// past ~9.2e9 overflowed. The float64-bits sum must handle both — the
// new Brier/log-loss histograms observe values in [0,1] where 1e-10
// residuals are meaningful.
func TestHistogramSumPrecision(t *testing.T) {
	h := NewHistogram([]float64{1})
	for i := 0; i < 1000; i++ {
		h.Observe(2.5e-10) // quantized to 0 by the nano sum
	}
	if got, want := h.Sum(), 2.5e-7; math.Abs(got-want) > 1e-18 {
		t.Fatalf("tiny-value sum = %v, want %v", got, want)
	}
	h2 := NewHistogram([]float64{1e12})
	h2.Observe(6e9)
	h2.Observe(6e9) // total 1.2e10: past the old int64-nano ceiling of ~9.2e9
	if got := h2.Sum(); got != 1.2e10 {
		t.Fatalf("large-value sum = %v, want 1.2e10", got)
	}
}

// TestHistogramConcurrentSum hammers the CAS-loop float sum: with an
// exactly-representable increment the concurrent total must be exact,
// not merely approximate.
func TestHistogramConcurrentSum(t *testing.T) {
	h := NewHistogram([]float64{1})
	const goroutines, iters = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Sum(), 0.25*goroutines*iters; got != want {
		t.Fatalf("concurrent sum = %v, want %v", got, want)
	}
}

// TestLatencyExpositionBytePinned locks the full Prometheus rendering of
// a latency histogram byte-for-byte, so the switch from the
// int64-nanosecond sum to the float64-bits sum provably cannot move any
// already-exported latency series. Observation values are chosen
// exactly representable in both schemes.
func TestLatencyExpositionBytePinned(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("req_latency_seconds", "Request latency.", []float64{0.25, 0.5, 1}).With()
	h.Observe(0.125)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP req_latency_seconds Request latency.\n" +
		"# TYPE req_latency_seconds histogram\n" +
		"req_latency_seconds_bucket{le=\"0.25\"} 1\n" +
		"req_latency_seconds_bucket{le=\"0.5\"} 2\n" +
		"req_latency_seconds_bucket{le=\"1\"} 2\n" +
		"req_latency_seconds_bucket{le=\"+Inf\"} 3\n" +
		"req_latency_seconds_sum 2.625\n" +
		"req_latency_seconds_count 3\n"
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFloatGauge(t *testing.T) {
	var g FloatGauge
	if g.Value() != 0 {
		t.Fatalf("zero-value float gauge = %v, want 0", g.Value())
	}
	g.Set(0.0625)
	if g.Value() != 0.0625 {
		t.Fatalf("float gauge = %v, want 0.0625", g.Value())
	}
	r := NewRegistry()
	v := r.FloatGaugeVec("online_brier_window", "Windowed Brier.", "model")
	v.With("tree").Set(0.25)
	v.With("bayes").Set(0.125)
	v.With("tree").Set(0.75) // same series, not a new one

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE online_brier_window gauge",
		`online_brier_window{model="bayes"} 0.125`,
		`online_brier_window{model="tree"} 0.75`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, `model="tree"`) != 1 {
		t.Fatalf("duplicate series for one label value:\n%s", out)
	}
}

func TestFloatGaugeVecLabelWidthPanics(t *testing.T) {
	r := NewRegistry()
	v := r.FloatGaugeVec("fg", "fg", "model")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count must panic")
		}
	}()
	v.With("m", "extra")
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("replica_ready", "Replica readiness.", "replica")
	v.With("http://a:1").Set(1)
	v.With("http://b:2").Set(0)
	v.With("http://a:1").Set(0) // same series, not a new one

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE replica_ready gauge",
		`replica_ready{replica="http://a:1"} 0`,
		`replica_ready{replica="http://b:2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, `replica="http://a:1"`) != 1 {
		t.Fatalf("duplicate series for one label value:\n%s", out)
	}
}

// TestVecWithAllocatesNothing pins the lookup of an existing series on
// every labeled vector: the key is built on the stack, so a 2-label With
// allocates nothing, NUL-sanitized values included.
func TestVecWithAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "c", "model", "outcome")
	gv := r.GaugeVec("g", "g", "model", "outcome")
	fv := r.FloatGaugeVec("f", "f", "model", "outcome")
	hv := r.HistogramVec("h", "h", nil, "model", "outcome")
	model, outcome := "phase2-tree-cp8", "matched"
	for _, o := range []string{outcome, "a\x00b"} {
		cv.With(model, o).Inc()
		gv.With(model, o).Set(1)
		fv.With(model, o).Set(1)
		hv.With(model, o).Observe(1)
		n := testing.AllocsPerRun(100, func() {
			cv.With(model, o).Inc()
			gv.With(model, o).Set(2)
			fv.With(model, o).Set(0.5)
			hv.With(model, o).Observe(0.5)
		})
		if n != 0 {
			t.Errorf("With(%q, %q) on existing series allocates %v times", model, o, n)
		}
	}
}
