// Command perfbench is the repository's serving benchmark. It exports the
// served models with the crashprone CLI, generates each workload's request
// bodies from a seed, builds the serving tiers inside its own process from
// their public constructors, drives them from a closed-loop client over
// loopback sockets and checks every answer against the offline path.
//
// With --trace 0 it reports the end-to-end metrics of one measured run;
// with --trace 1 it runs the traced per-layer split instead. perfbench/run.sh
// builds and runs it; README.md there lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/eval"
	"roadcrash/internal/geo"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/serve"
)

// workload is one traffic mix. See README.md for why each was chosen.
type workload struct {
	name      string
	path      string // primary endpoint, with its query
	rows      int    // rows per request; 0 on hotspots-topk
	bodies    int    // distinct request bodies in the pool
	routed    bool   // client → router → 2 replicas
	stream    bool
	feedback  bool
	respBytes int // answer size, to presize buffers
	maxRate   int // request-rate ceiling, to presize latency samples
}

var workloads = []workload{
	{name: "score-routed", path: "/score", rows: 16, bodies: 4096, routed: true, respBytes: 2 << 10, maxRate: 20000},
	{name: "stream-bulk", path: "/score/stream?model=" + treeModel, rows: 4096, bodies: 16, stream: true, respBytes: 256 << 10, maxRate: 1000},
	{name: "hotspots-topk", path: "/hotspots?model=" + kdeModel + "&k=64", respBytes: 8 << 10, maxRate: 20000},
	{name: "score-feedback", path: "/score", rows: 256, bodies: 256, feedback: true, respBytes: 16 << 10, maxRate: 5000},
}

const (
	// warmup is the untimed load before measuring, which opens the
	// connections and fills the servers' pools.
	warmup = time.Second
	// window is one measured interval; rows_per_s is the median over
	// windows, and a spare set-up follows each.
	window = time.Second
	// tracePhases alternate untraced and traced load in a traced run.
	tracePhases = 4
	// keptSpans bounds the raw span log a traced run writes out.
	keptSpans = 1 << 18
)

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	cli     string
	out     string
	commit  string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. Metrics holds what the last output line
// reports; Extra holds the rest of the report.
type result struct {
	workload  string
	attempted int64
	failed    int64
	metrics   map[string]value
	extra     map[string]any
	errs      []string
}

func main() {
	workloadName := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives byte-identical request bodies")
	seconds := flag.Float64("seconds", 20, "seconds of measured load per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end measurement")
	cli := flag.String("crashprone", "", "path of the crashprone CLI, which exports the served models")
	out := flag.String("out", ".bench_build/run", "directory for exported models and span dumps")
	commit := flag.String("commit", "unknown", "commit being measured, recorded in the report")
	flag.Parse()

	var selected []workload
	for _, w := range workloads {
		if *workloadName == w.name || *workloadName == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *cli == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --crashprone PATH --workload NAME|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		cli: *cli, out: *out, commit: *commit,
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	var results []*result
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		printReport(res, o)
		results = append(results, res)
	}
	last := results[0]
	if len(results) > 1 {
		last = combine(results)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{last.failed == 0, last.attempted, last.failed, last.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if last.failed > 0 {
		os.Exit(1)
	}
}

// combine folds the results of --workload all into one line, naming each
// metric workload/metric.
func combine(results []*result) *result {
	c := &result{workload: "all", metrics: map[string]value{}}
	for _, r := range results {
		c.attempted += r.attempted
		c.failed += r.failed
		for name, v := range r.metrics {
			c.metrics[r.workload+"/"+name] = v
		}
	}
	return c
}

// runWorkload exports the models, generates the inputs and runs either the
// measured or the traced run.
func runWorkload(w workload, o options) (*result, error) {
	dir, err := os.MkdirTemp(o.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	treePath, kdePath := filepath.Join(dir, "models", "tree.json"), filepath.Join(dir, "models", "kde.json")
	if err := os.MkdirAll(filepath.Dir(treePath), 0o755); err != nil {
		return nil, err
	}
	exports := [][]string{
		{"export", "-scale", "small", "-threshold", fmt.Sprint(treeThresh), "-out", treePath},
		{"hotspots", "-rows", fmt.Sprint(kdeFitRows), "-seed", fmt.Sprint(kdeFitSeed), "-cell", fmt.Sprint(kdeCellKm),
			"-k", fmt.Sprint(hotspotK), "-export", kdePath},
	}
	for _, args := range exports {
		if msg, err := exec.Command(o.cli, args...).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("crashprone %s: %v\n%s", args[0], err, msg)
		}
	}
	tree, err := artifact.ReadFile(treePath)
	if err != nil {
		return nil, err
	}
	kdeArt, err := artifact.ReadFile(kdePath)
	if err != nil {
		return nil, err
	}
	scorer, err := kdeArt.Model()
	if err != nil {
		return nil, err
	}
	kde, ok := scorer.(*geo.Model)
	if !ok {
		return nil, fmt.Errorf("%s is not a hotspot surface", kdePath)
	}
	in, err := makeInputs(w, o.seed, tree, kde)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, metrics: map[string]value{}, extra: map[string]any{}}
	modelDir := filepath.Dir(treePath)
	if o.trace {
		err = traced(w, o, modelDir, in, res)
	} else {
		err = measured(w, o, modelDir, in, kde, res)
	}
	return res, err
}

// maxSamples sizes the latency sample buffers for a phase of length d.
func maxSamples(w workload, d time.Duration) int {
	return int(min(float64(w.maxRate)*d.Seconds(), 4e6))
}

// measured is the end-to-end run: set up, warm up, then untraced load in
// one-second windows. A spare stack is set up and stopped after each window,
// so that setup_s, the median of all set-ups, samples the machine over the
// whole run rather than in one burst before it.
func measured(w workload, o options, modelDir string, in *inputs, kde *geo.Model, res *result) error {
	win := min(window, o.seconds)
	windows := int(o.seconds / win)
	c := newClient(w, in, nil, maxSamples(w, win))
	lat := make([]time.Duration, 0, maxSamples(w, o.seconds))
	heapBefore := liveHeap()

	runtime.GC()
	t, d, err := startTiers(w, modelDir, nil)
	if err != nil {
		return err
	}
	setups := []float64{d.Seconds()}
	c.target(t.entry)
	warm := c.run(warmup)
	res.attempted, res.failed, res.errs = warm.attempted, warm.failed, warm.errs

	var rates []float64
	var cpu float64
	var rows, primary int64
	for i := 0; i < windows; i++ {
		cpu0 := cpuTime()
		p := c.run(win)
		cpu += (cpuTime() - cpu0).Seconds()
		res.attempted += p.attempted
		res.failed += p.failed
		res.errs = append(res.errs, p.errs...)
		rates = append(rates, float64(p.rows)/p.elapsed.Seconds())
		rows += p.rows
		primary += p.primary
		lat = append(lat, p.lat...)
		s, err := spareSetup(w, modelDir)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	p50, p99, beyond := percentiles(lat)
	heap := liveHeap() - heapBefore
	runtime.KeepAlive(lat) // allocated before the first reading, so counted in both
	c.close()
	if err := t.stop(); err != nil {
		return fmt.Errorf("stopping tiers: %w", err)
	}

	// rows_per_s is a median over windows so that a stall of the machine
	// in one window stays out of the figure.
	res.metrics["setup_s"] = value{median(setups), "s"}
	res.metrics["rows_per_s"] = value{median(rates), "rows/s"}
	res.metrics["p50_ms"] = value{p50 * 1e3, "ms"}
	res.metrics["cpu_us_per_row"] = value{cpu * 1e6 / float64(max(rows, 1)), "us"}
	res.metrics["heap_live_mb"] = value{float64(heap) / (1 << 20), "MiB"}

	quality := map[string]value{
		"failed_share": {float64(res.failed) / float64(max(res.attempted, 1)), "fraction"},
	}
	if in.bodies != nil {
		var sum, n float64
		for b := range in.bodies {
			for _, wk := range c.workers {
				if wk.served[b] {
					sum += in.brier[b]
					n += float64(len(in.refs[b]))
					break
				}
			}
		}
		quality["brier"] = value{sum / max(n, 1), "brier"}
	} else {
		hr, err := hitRate(kde)
		if err != nil {
			return err
		}
		quality["hit_rate_at_k"] = value{hr, "fraction"}
	}
	// p99 is reported only when at least ten samples lie beyond it. It is
	// not one of BENCHMARK.json's gated metrics: on a shared 2-CPU machine
	// a few scheduler stalls move it by more than any useful bound.
	tail := map[string]any{"primary_requests": primary, "samples_beyond_p99": beyond, "p99_ms": "unsupported"}
	if beyond >= 10 {
		tail["p99_ms"] = value{p99 * 1e3, "ms"}
	}
	res.extra["tail"] = tail
	res.extra["quality"] = quality
	res.extra["setup_runs_s"] = setups
	res.extra["window_rows_per_s"] = rates
	return nil
}

// spareSetup sets up a second stack beside the loaded one, stops it and
// returns its set-up time in seconds. The collections before and after keep
// its garbage out of the measured windows.
func spareSetup(w workload, modelDir string) (float64, error) {
	runtime.GC()
	t, d, err := startTiers(w, modelDir, nil)
	if err != nil {
		return 0, err
	}
	if err := t.stop(); err != nil {
		return 0, fmt.Errorf("stopping a spare set-up: %w", err)
	}
	runtime.GC()
	return d.Seconds(), nil
}

// hitRate is the next-period crash mass the served cells capture, on the
// held-out half of the scenario the surface was fitted on.
func hitRate(kde *geo.Model) (float64, error) {
	opt := roadnet.DefaultScenarioOptions(kdeFitRows)
	opt.Seed = kdeFitSeed
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		return 0, err
	}
	obs, err := geo.CollectSegments(stream)
	if err != nil {
		return 0, err
	}
	_, test, err := geo.SplitObservations(obs, kdeTrainFrc)
	if err != nil {
		return 0, err
	}
	return eval.HitRateAtK(kde.Risk, kde.Grid.Counts(test), hotspotK)
}

// traced is the per-layer run: untraced and traced phases alternate under
// the same load, then each layer's public entry points are replayed on the
// workload's bodies.
func traced(w workload, o options, modelDir string, in *inputs, res *result) error {
	tr := newTracer(keptSpans)
	phaseLen := o.seconds / tracePhases
	c := newClient(w, in, tr, maxSamples(w, phaseLen))
	t, _, err := startTiers(w, modelDir, tr)
	if err != nil {
		return err
	}
	c.target(t.entry)
	warm := c.run(warmup)
	res.attempted, res.failed, res.errs = warm.attempted, warm.failed, warm.errs

	var off, on phase
	var rs runtimeStats
	for i := 0; i < tracePhases; i++ {
		tracing := i%2 == 1
		tr.on.Store(tracing)
		before := readRuntime()
		p := c.run(phaseLen)
		after := readRuntime()
		tr.on.Store(false)
		res.attempted += p.attempted
		res.failed += p.failed
		res.errs = append(res.errs, p.errs...)
		sum := &off
		if tracing {
			sum = &on
			rs.add(before, after)
		}
		sum.elapsed += p.elapsed
		sum.primary += p.primary
		sum.rows += p.rows
		sum.labels += p.labels
		sum.matched += p.matched
	}
	rejected, requests := 0.0, 0.0
	for _, srv := range t.servers {
		r, n := requestCounts(srv)
		rejected += r
		requests += n
	}
	c.close()
	if err := t.stop(); err != nil {
		return fmt.Errorf("stopping tiers: %w", err)
	}

	m := res.metrics
	us := func(d time.Duration, n int64) float64 { return d.Seconds() * 1e6 / float64(max(n, 1)) }
	entry := layerServe
	if w.routed {
		entry = layerRouter
	}
	m["client.self_us"] = value{us(tr.total(layerClient, epPrimary), tr.count(layerClient, epPrimary)) -
		us(tr.total(entry, epPrimary), tr.count(entry, epPrimary)), "us"}
	routerSelf, attempts, busiest := 0.0, 0.0, 0.0
	if w.routed {
		rn, sn := tr.count(layerRouter, epPrimary), tr.count(layerServe, epPrimary)
		routerSelf = us(tr.total(layerRouter, epPrimary)-tr.total(layerServe, epPrimary), rn)
		attempts = float64(sn) / float64(max(rn, 1))
		for r := range tr.aggs[layerServe] {
			busiest = max(busiest, float64(tr.aggs[layerServe][r][epPrimary].n.Load())/float64(max(sn, 1)))
		}
	}
	m["router.self_us"] = value{routerSelf, "us"}
	m["router.attempts_per_req"] = value{attempts, "count"}
	m["router.busiest_share"] = value{busiest, "fraction"}
	m["serve.live_us"] = value{us(tr.total(layerServe, epPrimary), tr.count(layerServe, epPrimary)), "us"}
	m["serve.rejected_share"] = value{rejected / max(requests, 1), "fraction"}
	matched := 0.0
	if on.labels > 0 {
		matched = float64(on.matched) / float64(on.labels)
	}
	m["serve.feedback_matched_share"] = value{matched, "fraction"}
	m["runtime.allocs_per_op"] = value{float64(rs.allocs) / float64(max(on.primary, 1)), "allocs"}
	m["runtime.gc_cpu_share"] = value{rs.gcCPU / math.Max(rs.usedCPU, 1e-9), "fraction"}
	m["runtime.sched_wait_us"] = value{rs.schedQuantile(0.9) * 1e6, "us"}
	offRate := float64(off.rows) / off.elapsed.Seconds()
	onRate := float64(on.rows) / on.elapsed.Seconds()
	m["trace.overhead_share"] = value{1 - onRate/offRate, "fraction"}

	if err := replayLayers(w, modelDir, in, res); err != nil {
		return err
	}
	dump := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, o.seed))
	if err := tr.dump(dump); err != nil {
		return err
	}
	res.extra["span_dump"] = dump
	res.extra["spans"] = tr.next.Load()
	res.extra["traced_primary_requests"] = on.primary
	res.extra["untraced_rows_per_s"] = offRate
	res.extra["traced_rows_per_s"] = onRate
	return nil
}

// replayLayers fills the replay metrics from a freshly loaded registry.
func replayLayers(w workload, modelDir string, in *inputs, res *result) error {
	reg := serve.NewRegistry()
	if _, err := reg.LoadDir(modelDir); err != nil {
		return err
	}
	tree, _ := reg.Get(treeModel)
	r := &replayer{w: w, in: in, tree: tree, n: min(len(in.bodies), replayBodies)}
	cfg := serve.Config{}
	if w.feedback {
		cfg.FeedbackWindow = feedbackWindow
	}
	srv := serve.New(reg, cfg)
	stages := []stage{r.handler(srv)}
	if in.bodies == nil {
		km, _ := reg.Get(kdeModel)
		gm, ok := km.Scorer.(*geo.Model)
		if !ok {
			return fmt.Errorf("%s did not load as a hotspot surface", kdeModel)
		}
		stages = append(stages, r.topCells(gm))
	} else {
		batches, err := r.batches()
		if err != nil {
			return err
		}
		batch, columns, err := r.scoring(batches)
		if err != nil {
			return err
		}
		stages = append(stages, r.parse(), batch, columns)
		if w.feedback {
			stages = append(stages, r.feedback(srv))
		}
	}
	costs := r.measure(stages)

	var topk, parse, batch, columns, fb cost
	handler, rest := costs[0], costs[0].us
	if in.bodies == nil {
		topk = costs[1]
		rest -= topk.us
	} else {
		parse, batch, columns = costs[1], costs[2], costs[3]
		rest -= parse.us + batch.us
		if w.feedback {
			fb = costs[4]
		}
	}
	m := res.metrics
	m["serve.handler_us"] = value{handler.us, "us"}
	m["serve.handler_allocs"] = value{handler.allocs, "allocs"}
	m["serve.rest_us"] = value{rest, "us"}
	m["serve.feedback_us"] = value{fb.us, "us"}
	m["data.parse_us"] = value{parse.us, "us"}
	m["data.parse_allocs"] = value{parse.allocs, "allocs"}
	m["artifact.map_us"] = value{batch.us - columns.us, "us"}
	m["compiled.score_us"] = value{columns.us, "us"}
	m["geo.topk_us"] = value{topk.us, "us"}
	m["geo.topk_allocs"] = value{topk.allocs, "allocs"}
	res.attempted += r.checked
	res.failed += r.failed
	res.errs = append(res.errs, r.errs...)
	res.extra["replay_checks"] = r.checked
	return nil
}

// requestCounts reads a server's 429 and total request counts from its
// metrics registry.
func requestCounts(srv *serve.Server) (rejected, total float64) {
	var sb strings.Builder
	srv.Metrics().WritePrometheus(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "crashprone_requests_total{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			continue
		}
		total += v
		if strings.Contains(line, `code="429"`) {
			rejected += v
		}
	}
	return rejected, total
}

// printReport writes the run's full report as one JSON line, and its
// failures to standard error.
func printReport(res *result, o options) {
	report := map[string]any{
		"workload": res.workload,
		"seed":     o.seed,
		"seconds":  o.seconds.Seconds(),
		"trace":    o.trace,
		"provenance": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "commit": o.commit, "seed": o.seed,
		},
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}
	for k, v := range res.extra {
		report[k] = v
	}
	if len(res.errs) > 0 {
		report["errors"] = res.errs
		for _, e := range res.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", res.workload, e)
		}
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Println(string(line))
}

// liveHeap forces collections and returns the bytes the last one found
// live. The first collection moves sync.Pool contents to the victim cache
// and the second frees them, so pooled scratch does not count.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentiles returns the nearest-rank p50 and p99 of the latencies in
// seconds, and how many samples lie beyond the p99.
func percentiles(lat []time.Duration) (p50, p99 float64, beyond int) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	slices.Sort(lat)
	rank := func(q float64) int { return max(int(math.Ceil(q*float64(len(lat))))-1, 0) }
	r99 := rank(0.99)
	return lat[rank(0.5)].Seconds(), lat[r99].Seconds(), len(lat) - 1 - r99
}
