// Command crashprone is the road-asset-manager-facing tool built on the
// crash-proneness library:
//
//	crashprone generate -out ./data         # synthesize study CSVs
//	crashprone summarize -in ./data/crash.csv
//	crashprone sweep -phase 2               # threshold sweep + best pick
//	crashprone sweep -export-best m.json    # …and persist the best model
//	crashprone rules -threshold 8           # decision-tree rule extraction
//	crashprone cluster -k 32                # phase 3 clustering report
//	crashprone hotspots -cell 3 -k 64       # grid-cell hotspot evaluation
//	crashprone hotspots -export h.json      # …and persist the KDE surface
//	crashprone rank -threshold 8            # rank segments by proneness
//	crashprone crisp                        # full CRISP-DM process report
//	crashprone export -threshold 8 -out m.json   # persist a trained model
//	crashprone score -model m.json -in segs.csv  # stream-score a CSV
//	crashprone simulate -rows 1000000 | crashprone score -model m.json -format ndjson
//	crashprone serve -dir ./models -addr :8080   # HTTP scoring service
//	crashprone router -replicas http://127.0.0.1:8081,http://127.0.0.1:8082 -addr :8080
//	crashprone faultproxy -target http://127.0.0.1:8081 -addr :8070 -latency 50ms -latency-every 3
//	crashprone loadgen -addr http://localhost:8080 -duration 10s  # load test
//
// Study subcommands accept -scale small|paper and -seed N. score and
// simulate stream row chunks (stdin/stdout when -in/-out are omitted), so
// feeds of any size run in constant memory. The artifact format, the data
// formats and the scoring API are specified in docs/SERVING.md and
// docs/DATA.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/crisp"
	"roadcrash/internal/data"
	"roadcrash/internal/eval"
	"roadcrash/internal/faultproxy"
	"roadcrash/internal/geo"
	"roadcrash/internal/loadgen"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/router"
	"roadcrash/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(args)
	case "summarize":
		err = cmdSummarize(args)
	case "sweep":
		err = cmdSweep(args)
	case "rules":
		err = cmdRules(args)
	case "cluster":
		err = cmdCluster(args)
	case "hotspots":
		err = cmdHotspots(os.Stdout, args)
	case "rank":
		err = cmdRank(args)
	case "crisp":
		err = cmdCrisp(args)
	case "export":
		err = cmdExport(args)
	case "score":
		err = cmdScore(args)
	case "simulate":
		err = cmdSimulate(args)
	case "serve":
		err = cmdServe(args)
	case "router":
		err = cmdRouter(args)
	case "faultproxy":
		err = cmdFaultproxy(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "crashprone: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashprone: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: crashprone <command> [flags]

study commands:
  generate   synthesize the study datasets as CSV files
  summarize  print schema and distribution statistics for a dataset CSV
  sweep      run the crash-proneness threshold sweep (phase 1 or 2);
             -export-best writes the best-MCPV model as an artifact
  rules      grow a decision tree at one threshold and print its rules
  cluster    run the phase 3 k-means clustering and crash-count ranges
  hotspots   grid-cell hotspot evaluation: fit KDE and persistence risk
             surfaces on scenario data, compare next-period hit-rate@k,
             and optionally export the surface as a hotspot artifact
  rank       rank road segments by predicted crash proneness
  crisp      run the whole study under the CRISP-DM process framework

model commands (see docs/SERVING.md and docs/DATA.md):
  export     train a model at a threshold and write a JSON artifact
  score      stream-score segment rows (CSV or NDJSON, stdin by default)
             against an artifact, in constant memory
  simulate   stream synthetic segment-year rows for load testing
  serve      serve artifacts over the HTTP scoring API
             (POST /score, POST /score/stream, GET /hotspots, GET /models,
             GET /healthz, GET /metrics, POST /reload)
  router     fan scoring traffic across serve replicas with least-inflight
             routing, retries, hedging, circuit breakers and fleet-atomic
             POST /reload
  faultproxy torture a replica deterministically: latency spikes, 5xx
             bursts, connection resets and mid-stream kills
  loadgen    drive a running service with scenario traffic and report
             throughput, latency quantiles and error rates as JSON
             (-addr takes comma-separated URLs; -retry honors Retry-After)`)
}

// studyFlags wires the shared -scale and -seed flags into fs.
func studyFlags(fs *flag.FlagSet) (*string, *uint64) {
	scale := fs.String("scale", "paper", "study scale: paper or small")
	seed := fs.Uint64("seed", 0, "override the network seed (0 keeps the default)")
	return scale, seed
}

func buildConfig(scale string, seed uint64) (core.Config, error) {
	var cfg core.Config
	switch scale {
	case "paper":
		cfg = core.DefaultConfig()
	case "small":
		cfg = core.SmallConfig()
	default:
		return cfg, fmt.Errorf("unknown scale %q", scale)
	}
	if seed != 0 {
		cfg.Network.Seed = seed
	}
	return cfg, nil
}

func newStudy(scale string, seed uint64) (*core.Study, error) {
	cfg, err := buildConfig(scale, seed)
	if err != nil {
		return nil, err
	}
	return core.NewStudy(cfg)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	out := fs.String("out", ".", "output directory")
	format := fs.String("format", "csv", "output format: csv or ndjson")
	scale, seed := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "csv" && *format != "ndjson" {
		return fmt.Errorf("generate: unknown format %q (want csv or ndjson)", *format)
	}
	cfg, err := buildConfig(*scale, *seed)
	if err != nil {
		return err
	}
	net, err := roadnet.Generate(cfg.Network)
	if err != nil {
		return err
	}
	study, err := roadnet.ExtractStudy(net, cfg.Study)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	write := func(name string, ds *data.Dataset) error {
		path := filepath.Join(*out, name+"."+*format)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if *format == "ndjson" {
			err = ds.WriteNDJSON(f)
		} else {
			err = ds.WriteCSV(f)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d instances)\n", path, ds.Len())
		return f.Close()
	}
	if err := write("crash", study.Crash); err != nil {
		return err
	}
	if err := write("nocrash", study.NoCrash); err != nil {
		return err
	}
	segs, total, surveyed := net.Totals()
	fmt.Printf("network: %d segments, %d with crashes, %d crashes (%d on surveyed roads)\n",
		len(net.Segments), segs, total, surveyed)
	return nil
}

func cmdSummarize(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("summarize: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := data.ReadCSV(filepath.Base(*in), f)
	if err != nil {
		return err
	}
	fmt.Print(ds.String())
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	phase := fs.Int("phase", 2, "modeling phase: 1 (crash/no-crash) or 2 (crash only)")
	exportBest := fs.String("export-best", "", "write the best-MCPV model as an artifact to this path")
	learner := fs.String("learner", "tree", "learner for -export-best: "+fmt.Sprint(core.ExportLearners()))
	scale, seed := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(*scale, *seed)
	if err != nil {
		return err
	}
	var rows []core.SweepRow
	var title string
	switch *phase {
	case 1:
		title = "Phase 1 sweep (crash and no-crash dataset)"
		rows, err = study.Table3()
	case 2:
		title = "Phase 2 sweep (crash-only dataset)"
		rows, err = study.Table4()
	default:
		return fmt.Errorf("sweep: phase must be 1 or 2")
	}
	if err != nil {
		return err
	}
	fmt.Println(core.RenderSweep(title, rows))
	best, err := core.BestThreshold(rows)
	if err != nil {
		return err
	}
	fmt.Printf("best crash-proneness threshold by MCPV: >%d crashes per 4 years\n", best)
	if *exportBest != "" {
		a, err := study.ExportArtifact(core.ExportOptions{Phase: *phase, Threshold: best, Learner: *learner})
		if err != nil {
			return err
		}
		if err := artifact.WriteFile(*exportBest, a); err != nil {
			return err
		}
		fmt.Printf("wrote %s (model %q, %s, threshold >%d, MCPV %.3f)\n",
			*exportBest, a.Name, a.Kind, a.Threshold, a.Metrics["mcpv"])
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	threshold := fs.Int("threshold", 8, "crash-proneness threshold")
	phase := fs.Int("phase", 2, "modeling phase: 1 (crash/no-crash) or 2 (crash only)")
	learner := fs.String("learner", "tree", "learner: "+fmt.Sprint(core.ExportLearners()))
	out := fs.String("out", "", "artifact output path (required)")
	name := fs.String("name", "", "artifact model name (default phase<P>-<learner>-cp<T>)")
	scale, seed := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("export: -out is required")
	}
	study, err := newStudy(*scale, *seed)
	if err != nil {
		return err
	}
	a, err := study.ExportArtifact(core.ExportOptions{
		Phase: *phase, Threshold: *threshold, Learner: *learner, Name: *name,
	})
	if err != nil {
		return err
	}
	if err := artifact.WriteFile(*out, a); err != nil {
		return err
	}
	fmt.Printf("wrote %s (model %q, %s, threshold >%d)\n", *out, a.Name, a.Kind, a.Threshold)
	for _, k := range []string{"mcpv", "kappa", "r_squared", "auc"} {
		if v, ok := a.Metrics[k]; ok {
			fmt.Printf("  %s: %.4f\n", k, v)
		}
	}
	return nil
}

// openInput resolves -in: "" or "-" means stdin (not closed), anything
// else is opened as a file.
func openInput(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// batchReaderFor builds the chunk reader for one input format. NDJSON is
// not self-describing, so it reads in the given schema.
func batchReaderFor(format string, r io.Reader, schema []data.Attribute, chunk int) (data.BatchReader, error) {
	switch format {
	case "csv":
		return data.NewCSVBatchReader(r, chunk)
	case "ndjson":
		return data.NewNDJSONBatchReader(r, schema, chunk), nil
	default:
		return nil, fmt.Errorf("unknown format %q (want csv or ndjson)", format)
	}
}

// feedSchema is the NDJSON schema the score command reads: the model's
// training schema plus the study's bookkeeping attributes (segment id,
// crash year, wet flag), mirroring the CSV path where extra named columns
// are carried but ignored by the scorer. Attribute names outside this
// union are still rejected as client typos.
func feedSchema(model []data.Attribute) []data.Attribute {
	have := make(map[string]bool, len(model))
	merged := append([]data.Attribute(nil), model...)
	for _, at := range model {
		have[at.Name] = true
	}
	for _, at := range roadnet.StudyAttrs() {
		if !have[at.Name] {
			merged = append(merged, at)
		}
	}
	return merged
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	model := fs.String("model", "", "model artifact path (required)")
	in := fs.String("in", "-", "segment rows to score (default stdin)")
	format := fs.String("format", "csv", "input format: csv or ndjson")
	chunk := fs.Int("chunk", data.DefaultChunkSize, "rows per scoring chunk")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("score: -model is required")
	}
	a, err := artifact.ReadFile(*model)
	if err != nil {
		return err
	}
	bs, err := artifact.NewBatchScorer(a)
	if err != nil {
		return err
	}
	input, err := openInput(*in)
	if err != nil {
		return err
	}
	defer input.Close()
	br, err := batchReaderFor(*format, bufio.NewReaderSize(input, 256<<10), feedSchema(bs.Mapper().Attrs()), *chunk)
	if err != nil {
		return fmt.Errorf("score: %w", err)
	}

	var file *os.File
	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		file, err = os.Create(*out)
		if err != nil {
			return err
		}
		w = bufio.NewWriter(file)
	}
	// Echo the segment id when the input carries one, else the row number.
	idCol := -1
	for j, at := range br.Attrs() {
		if at.Name == roadnet.AttrSegmentID {
			idCol = j
		}
	}
	idHeader := "row"
	if idCol >= 0 {
		idHeader = roadnet.AttrSegmentID
	}
	fmt.Fprintf(w, "%s,risk,crash_prone\n", idHeader)
	row := 0
	var line []byte
	total, err := bs.ScoreAll(br, func(b *data.Batch, scores []float64) error {
		for i, risk := range scores {
			// Under a segment_id header a missing id prints as NaN —
			// visibly not an id — never a fabricated row number that could
			// collide with a real segment id downstream.
			id := float64(row)
			if idCol >= 0 {
				id = b.At(i, idCol)
			}
			// The risk is spelled as /score and /score/stream spell it.
			line = fmt.Appendf(line[:0], "%.0f,", id)
			line = data.AppendJSONFloat(line, risk)
			line = fmt.Appendf(line, ",%d\n", boolBit(risk >= 0.5))
			if _, err := w.Write(line); err != nil {
				return err
			}
			row++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("score: %w", err)
	}
	// A truncated scores file must not exit 0: surface flush/close errors.
	if err := w.Flush(); err != nil {
		return fmt.Errorf("score: writing output: %w", err)
	}
	if file != nil {
		if err := file.Close(); err != nil {
			return fmt.Errorf("score: writing output: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "scored %d segments with %q (%s, threshold >%d)\n",
		total, a.Name, a.Kind, a.Threshold)
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	rows := fs.Int("rows", 1000000, "segment-year rows to emit")
	chunk := fs.Int("chunk", data.DefaultChunkSize, "rows per chunk")
	seed := fs.Uint64("seed", 0, "stream seed (0 keeps the default)")
	weather := fs.String("weather", "mixed", "weather regime: mixed, wet or dry")
	jitter := fs.Float64("jitter", 1, "survey drift scale (0 disables)")
	growth := fs.Float64("growth", 0, "extra per-year AADT growth, e.g. 0.03")
	format := fs.String("format", "ndjson", "output format: csv or ndjson")
	out := fs.String("out", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "csv" && *format != "ndjson" {
		// Validate before touching -out so a bad flag cannot truncate an
		// existing output file.
		return fmt.Errorf("simulate: unknown format %q (want csv or ndjson)", *format)
	}
	opt := roadnet.DefaultScenarioOptions(*rows)
	opt.ChunkSize = *chunk
	opt.SurveyJitter = *jitter
	opt.AADTGrowth = *growth
	if *seed != 0 {
		opt.Seed = *seed
	}
	w, err := roadnet.WeatherFromString(*weather)
	if err != nil {
		return err
	}
	opt.Weather = w
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		return err
	}

	// The batch writers buffer internally (csv.Writer / bufio), so the
	// destination needs no extra buffering layer.
	var file *os.File
	dst := io.Writer(os.Stdout)
	if *out != "" {
		file, err = os.Create(*out)
		if err != nil {
			return err
		}
		dst = file
	}
	var bw data.BatchWriter
	if *format == "csv" {
		bw = data.NewCSVBatchWriter(dst, stream.Attrs())
	} else {
		bw = data.NewNDJSONBatchWriter(dst, stream.Attrs())
	}
	if err := data.Copy(bw, stream); err != nil {
		return err
	}
	if file != nil {
		if err := file.Close(); err != nil {
			return fmt.Errorf("simulate: writing output: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "emitted %d segment-year rows (%s weather, seed %d)\n", *rows, w, opt.Seed)
	return nil
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "", "directory of model artifacts (*.json)")
	model := fs.String("model", "", "single artifact to serve (alternative to -dir)")
	addr := fs.String("addr", ":8080", "listen address")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent scoring requests admitted before 429 (0 = default 256)")
	timeout := fs.Duration("timeout", 0, "/score request deadline (0 = default 30s)")
	streamTimeout := fs.Duration("stream-timeout", 0, "/score/stream per-chunk deadline (0 = default 30s)")
	retryAfter := fs.Duration("retry-after", 0, "Retry-After hint on 429 rejections, rounded up to seconds (0 = default 1s)")
	drain := fs.Duration("drain", 30*time.Second, "in-flight drain window on shutdown")
	reload := fs.Bool("reload", false, "enable POST /reload to hot-swap the model set from -dir")
	feedbackWindow := fs.Int("feedback-window", 0, "served scores kept per model for the POST /feedback label join (0 disables the feedback loop)")
	rollingWindow := fs.Int("rolling-window", 0, "joined labels per model version's rolling Brier window (0 = default 256)")
	minFeedback := fs.Int("min-feedback", 0, "joined labels before a version's drift baseline pins (0 = default 50)")
	driftFire := fs.Float64("drift-fire", 0, "drift alarm fires at windowed Brier >= baseline*this (0 = default 1.5)")
	driftClear := fs.Float64("drift-clear", 0, "drift alarm clears at windowed Brier <= baseline*this (0 = default 1.15)")
	promoteMargin := fs.Float64("promote-margin", 0, "relative windowed-Brier improvement a shadow candidate needs to promote (0 = default 0.05)")
	autoPromote := fs.Bool("auto-promote", false, "run the promotion gate after every feedback ingest (requires -feedback-window and -reload)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*dir == "") == (*model == "") {
		return fmt.Errorf("serve: exactly one of -dir or -model is required")
	}
	if *reload && *dir == "" {
		return fmt.Errorf("serve: -reload requires -dir")
	}
	if *autoPromote && (*feedbackWindow <= 0 || !*reload) {
		return fmt.Errorf("serve: -auto-promote requires -feedback-window and -reload")
	}
	reg := serve.NewRegistry()
	if *dir != "" {
		names, err := reg.LoadDir(*dir)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "loaded model %q\n", n)
		}
	} else {
		m, err := reg.LoadFile(*model)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded model %q\n", m.Artifact.Name)
	}
	cfg := serve.Config{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		StreamTimeout:  *streamTimeout,
		RetryAfter:     *retryAfter,
		FeedbackWindow: *feedbackWindow,
		RollingWindow:  *rollingWindow,
		MinFeedback:    *minFeedback,
		DriftFire:      *driftFire,
		DriftClear:     *driftClear,
		PromoteMargin:  *promoteMargin,
		AutoPromote:    *autoPromote,
	}
	if *reload {
		cfg.ReloadDir = *dir
	}
	// SIGINT/SIGTERM triggers a graceful shutdown: the listener closes at
	// once, in-flight requests (including streams) drain for up to -drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "serving %d model(s) on %s (POST /score, POST /score/stream, GET /hotspots, GET /models, GET /healthz, GET /metrics)\n", reg.Len(), *addr)
	return serve.Run(ctx, *addr, serve.New(reg, cfg), *drain)
}

func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (required)")
	addr := fs.String("addr", ":8080", "listen address")
	attempts := fs.Int("attempts", 0, "max attempts per batch request (0 = default 3)")
	retryBase := fs.Duration("retry-base", 0, "base retry backoff (0 = default 25ms)")
	retryMax := fs.Duration("retry-max", 0, "retry sleep cap, bounds honored Retry-After too (0 = default 1s)")
	attemptTimeout := fs.Duration("attempt-timeout", 0, "per-attempt deadline for batch calls (0 = default 30s)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge a batch request on a second replica after this delay (0 disables)")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive failures that open a replica's breaker (0 = default 5)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker ejection time before a half-open probe (0 = default 2s)")
	pollInterval := fs.Duration("poll-interval", 0, "replica health/metrics poll period (0 = default 1s)")
	streamStall := fs.Duration("stream-stall", 0, "cut a streaming replica silent this long (0 = default 30s)")
	drain := fs.Duration("drain", 30*time.Second, "in-flight drain window on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas == "" {
		return fmt.Errorf("router: -replicas is required")
	}
	cfg := router.Config{
		Replicas:           splitList(*replicas),
		MaxAttempts:        *attempts,
		RetryBaseDelay:     *retryBase,
		RetryMaxDelay:      *retryMax,
		AttemptTimeout:     *attemptTimeout,
		HedgeAfter:         *hedgeAfter,
		BreakerFailures:    *breakerFailures,
		BreakerCooldown:    *breakerCooldown,
		PollInterval:       *pollInterval,
		StreamStallTimeout: *streamStall,
	}
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "routing over %d replica(s) on %s (POST /score, POST /score/stream, GET /models, GET /healthz, GET /metrics, POST /reload)\n",
		len(cfg.Replicas), *addr)
	return serve.Run(ctx, *addr, rt, *drain)
}

func cmdFaultproxy(args []string) error {
	fs := flag.NewFlagSet("faultproxy", flag.ExitOnError)
	target := fs.String("target", "", "base URL of the replica behind the proxy (required)")
	addr := fs.String("addr", ":8070", "listen address")
	latency := fs.Duration("latency", 0, "added latency per scheduled request")
	latencyEvery := fs.Int("latency-every", 0, "inject -latency on every Nth request (0 disables)")
	errorEvery := fs.Int("error-every", 0, "start a 502 burst at every Nth request (0 disables)")
	errorBurst := fs.Int("error-burst", 1, "consecutive 502s per burst")
	resetEvery := fs.Int("reset-every", 0, "reset the connection before responding on every Nth request (0 disables)")
	killEvery := fs.Int("kill-every", 0, "kill the connection mid-response on every Nth request (0 disables)")
	killAfter := fs.Int("kill-after-bytes", 1024, "response bytes forwarded before a kill")
	maxInflight := fs.Int("max-inflight", 0, "cap concurrent requests through the proxy, queueing the rest (0 = unlimited; with -latency this emulates a capacity-bound replica)")
	drain := fs.Duration("drain", 5*time.Second, "in-flight drain window on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("faultproxy: -target is required")
	}
	p, err := faultproxy.New(faultproxy.Config{
		Target:         *target,
		Latency:        *latency,
		LatencyEvery:   *latencyEvery,
		ErrorEvery:     *errorEvery,
		ErrorBurst:     *errorBurst,
		ResetEvery:     *resetEvery,
		KillEvery:      *killEvery,
		KillAfterBytes: *killAfter,
		MaxInFlight:    *maxInflight,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "fault-proxying %s on %s\n", *target, *addr)
	return serve.Run(ctx, *addr, p, *drain)
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL(s) of the scoring service, comma-separated for multi-target runs")
	model := fs.String("model", "", "model to drive (default: first model the service lists)")
	mode := fs.String("mode", "mixed", "endpoints to drive: batch, stream, mixed or hotspot")
	concurrency := fs.Int("concurrency", 8, "concurrent request workers")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	batchRows := fs.Int("batch-rows", 256, "segments per /score request")
	streamRows := fs.Int("stream-rows", 4096, "rows per /score/stream request")
	hotspotK := fs.Int("hotspot-k", 0, "cells per GET /hotspots request in hotspot mode (0 = default 16)")
	seed := fs.Uint64("seed", 0, "scenario traffic seed (0 keeps the default)")
	weather := fs.String("weather", "mixed", "weather regime of the traffic: mixed, wet or dry")
	retry := fs.Bool("retry", false, "retry 429s and transport errors, honoring Retry-After")
	retryAttempts := fs.Int("retry-attempts", 0, "max retries per request with -retry (0 = default 4)")
	feedback := fs.Bool("feedback", false, "POST delayed ground-truth labels to /feedback (service must run with -feedback-window)")
	feedbackLag := fs.Int("feedback-lag", 0, "scored batches a worker waits before sending a batch's labels (0 = default 2)")
	labelThreshold := fs.Int("label-threshold", 0, "crash-count threshold labels are derived with (0 = the model's training threshold)")
	driftAfterRow := fs.Int("drift-after-row", 0, "per-worker stream row at which concept drift sets in (with -drift-shift)")
	driftShift := fs.Float64("drift-shift", 0, "additive log-scale risk shift injected after -drift-after-row (0 disables drift)")
	out := fs.String("out", "", "JSON report path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := loadgen.ParseMode(*mode)
	if err != nil {
		return err
	}
	w, err := roadnet.WeatherFromString(*weather)
	if err != nil {
		return err
	}
	opt := loadgen.Options{
		Targets:        splitList(*addr),
		Model:          *model,
		Mode:           m,
		Concurrency:    *concurrency,
		Duration:       *duration,
		BatchRows:      *batchRows,
		StreamRows:     *streamRows,
		HotspotK:       *hotspotK,
		Seed:           *seed,
		Weather:        w,
		Retry:          *retry,
		RetryAttempts:  *retryAttempts,
		Feedback:       *feedback,
		FeedbackLag:    *feedbackLag,
		LabelThreshold: *labelThreshold,
		DriftAfterRow:  *driftAfterRow,
		DriftRiskShift: *driftShift,
	}
	// Ctrl-C ends the run early; the report covers what completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, opt)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
	} else {
		os.Stdout.Write(raw)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d rows in %.1fs (%.0f rows/s) against %q\n",
		rep.TotalRows, rep.DurationSeconds, rep.TotalRowsPerSec, rep.Model)
	return nil
}

// cmdHotspots runs the offline grid-cell hotspot evaluation: it streams
// scenario segment-years, collapses them to per-segment observations with
// coordinates, splits the segments into a training and an evaluation
// period, fits the KDE and persistence risk surfaces on the training
// period, and reports how much next-period crash mass each surface's
// top-k cells capture, writing the report to w. -export persists the
// chosen surface as a hotspot artifact for `crashprone serve` — GET
// /hotspots then returns exactly the ranking printed here.
func cmdHotspots(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("hotspots", flag.ExitOnError)
	rows := fs.Int("rows", 200000, "scenario segment-year rows to stream")
	seed := fs.Uint64("seed", 20110322, "scenario seed")
	cell := fs.Float64("cell", 3, "grid cell size in km")
	bandwidth := fs.Float64("bandwidth", 0, "KDE bandwidth in km (0 = default)")
	k := fs.Int("k", 64, "top-k cells the hit-rate headline scores")
	trainFrac := fs.Float64("train-frac", 0.5, "fraction of segments in the training period")
	driftAfterRow := fs.Int("drift-after-row", 0, "stream row at which concept drift sets in (with -drift-shift)")
	driftShift := fs.Float64("drift-shift", 0, "additive log-scale risk shift injected after -drift-after-row")
	workers := fs.Int("workers", 0, "KDE fit workers (0 = GOMAXPROCS)")
	top := fs.Int("top", 10, "print the N top-ranked cells (highest expected crash count) of each surface")
	export := fs.String("export", "", "write the exported surface as a hotspot artifact at this path")
	method := fs.String("method", geo.MethodKDE, "surface -export persists: kde or persistence")
	name := fs.String("name", "", "exported artifact model name (default grid-<method>)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *method != geo.MethodKDE && *method != geo.MethodPersistence {
		return fmt.Errorf("hotspots: unknown method %q (want kde or persistence)", *method)
	}

	scn := roadnet.DefaultScenarioOptions(*rows)
	scn.Seed = *seed
	scn.DriftAfterRow = *driftAfterRow
	scn.DriftRiskShift = *driftShift
	stream, err := roadnet.NewScenarioStream(scn)
	if err != nil {
		return err
	}
	obs, err := geo.CollectSegments(stream)
	if err != nil {
		return err
	}
	train, test, err := geo.SplitObservations(obs, *trainFrac)
	if err != nil {
		return err
	}
	g, err := geo.NewGrid(0, 0, roadnet.ExtentKm, roadnet.ExtentKm, *cell)
	if err != nil {
		return err
	}
	kdeOpt := geo.DefaultKDEOptions()
	kdeOpt.Workers = *workers
	if *bandwidth > 0 {
		kdeOpt.BandwidthKm = *bandwidth
	}
	kde, err := geo.FitKDE(g, train, 1, kdeOpt)
	if err != nil {
		return err
	}
	pers, err := geo.FitPersistence(g, train, 1)
	if err != nil {
		return err
	}

	future := g.Counts(test)
	futureMass := 0.0
	for _, c := range future {
		futureMass += c
	}
	fmt.Fprintf(w, "hotspot grid: %d×%d cells of %.1f km over a %.0f km extent\n",
		g.NX, g.NY, g.CellKm, roadnet.ExtentKm)
	fmt.Fprintf(w, "segments: %d observed, %d train / %d test; next-period crash mass %.0f\n",
		len(obs), len(train), len(test), futureMass)
	if *driftShift != 0 {
		fmt.Fprintf(w, "concept drift: +%.2f log-risk after row %d\n", *driftShift, *driftAfterRow)
	}

	fmt.Fprintf(w, "\nhit-rate (next-period crash mass captured by the top-k cells)\n")
	fmt.Fprintf(w, "  %8s %8s %12s %12s\n", "k", "area", "kde", "persistence")
	ks := []int{*k / 4, *k / 2, *k, *k * 2}
	for _, kk := range ks {
		if kk < 1 || kk > g.Cells() {
			continue
		}
		kh, err := eval.HitRateAtK(kde.RankKey(), future, kk)
		if err != nil {
			return err
		}
		ph, err := eval.HitRateAtK(pers.RankKey(), future, kk)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %8d %7.1f%% %12.4f %12.4f\n",
			kk, 100*float64(kk)/float64(g.Cells()), kh, ph)
	}

	for _, surf := range []*geo.Model{kde, pers} {
		fmt.Fprintf(w, "\ntop %d cells (%s):\n", *top, surf.Method)
		for _, cr := range surf.TopCells(*top) {
			fmt.Fprintf(w, "  cell %5d  (%5.1f, %5.1f) km  expected crashes %6.2f  risk %.4f\n",
				cr.Cell, cr.XKm, cr.YKm, surf.Rate[cr.Cell], cr.Risk)
		}
	}

	if *export != "" {
		model := kde
		if *method == geo.MethodPersistence {
			model = pers
		}
		headlineKde, err := eval.HitRateAtK(kde.RankKey(), future, *k)
		if err != nil {
			return err
		}
		headlinePers, err := eval.HitRateAtK(pers.RankKey(), future, *k)
		if err != nil {
			return err
		}
		if *name == "" {
			*name = "grid-" + *method
		}
		metrics := map[string]float64{
			"hit_rate_at_k":             headlineKde,
			"hit_rate_k":                float64(*k),
			"hit_rate_at_k_persistence": headlinePers,
		}
		if *method == geo.MethodPersistence {
			metrics["hit_rate_at_k"] = headlinePers
		}
		a, err := artifact.New(*name, artifact.KindHotspot, model, geo.Schema(), 0, *seed, "cell_label", metrics)
		if err != nil {
			return err
		}
		if err := artifact.WriteFile(*export, a); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (model %q, %s surface, %d cells)\n", *export, *name, model.Method, g.Cells())
	}
	return nil
}

func cmdRules(args []string) error {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	threshold := fs.Int("threshold", 8, "crash-proneness threshold")
	top := fs.Int("top", 10, "print the N most crash-prone rules")
	scale, seed := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(*scale, *seed)
	if err != nil {
		return err
	}
	ds, err := study.CrashOnlyDataset().CountThresholdTarget(roadnet.CrashCountAttr, *threshold, "crash_prone")
	if err != nil {
		return err
	}
	target := ds.MustAttrIndex("crash_prone")
	cfg := study.Config.Tree
	var feats []int
	for _, name := range roadnet.RoadAttrNames() {
		feats = append(feats, ds.MustAttrIndex(name))
	}
	cfg.Features = feats
	dt, err := tree.Grow(ds, target, cfg)
	if err != nil {
		return err
	}
	rules := dt.Rules()
	sort.Slice(rules, func(i, j int) bool { return rules[i].Value > rules[j].Value })
	if *top > len(rules) {
		*top = len(rules)
	}
	fmt.Printf("decision tree at threshold >%d: %d leaves, depth %d\n", *threshold, dt.Leaves(), dt.Depth())
	fmt.Printf("top %d crash-prone rules:\n", *top)
	for _, r := range rules[:*top] {
		fmt.Printf("  P(crash prone)=%.2f (n=%d):\n", r.Value, r.N)
		for _, c := range r.Conditions {
			fmt.Printf("    %s\n", c)
		}
	}
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	k := fs.Int("k", 32, "cluster count")
	profiles := fs.Bool("profiles", false, "print per-cluster attribute profiles")
	scale, seed := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := buildConfig(*scale, *seed)
	if err != nil {
		return err
	}
	cfg.ClusterK = *k
	study, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	res, err := study.Phase3()
	if err != nil {
		return err
	}
	fmt.Println(core.RenderFigure4(res))
	if *profiles {
		for _, c := range res.Clusters {
			p, ok := res.ProfileFor(c.Cluster)
			if !ok {
				continue
			}
			fmt.Printf("cluster %d (median %.0f crashes, n=%d):", c.Cluster, c.Counts.Median, c.Size)
			for _, sig := range p.Top(3) {
				fmt.Printf("  %s %+.1fsd", sig.Attr, sig.Z)
			}
			fmt.Println()
		}
	}
	return nil
}

func cmdRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	threshold := fs.Int("threshold", 8, "crash-proneness threshold")
	top := fs.Int("top", 20, "segments to list")
	scale, seed := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, err := newStudy(*scale, *seed)
	if err != nil {
		return err
	}
	scores, err := study.RankSegments(*threshold, *top)
	if err != nil {
		return err
	}
	fmt.Printf("top %d segments by P(crash prone) at threshold >%d:\n", len(scores), *threshold)
	fmt.Printf("%-10s  %-8s  %-10s  %-8s  %s\n", "segment", "risk", "crashes/4y", "F60", "AADT")
	for _, s := range scores {
		fmt.Printf("%-10d  %-8.3f  %-10d  %-8.3f  %.0f\n", s.SegmentID, s.Risk, s.CrashCount, s.F60, s.AADT)
	}
	return nil
}

func cmdCrisp(args []string) error {
	fs := flag.NewFlagSet("crisp", flag.ExitOnError)
	scale, seed := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := buildConfig(*scale, *seed)
	if err != nil {
		return err
	}
	var study *core.Study
	var best1, best2 int
	p := crisp.New("road crash proneness study")
	p.Add(crisp.BusinessUnderstanding, crisp.Step{Name: "goals", Run: func(log *crisp.Log) (string, error) {
		log.Notef("goal: quantify crash proneness of 1 km road segments")
		log.Notef("improve on the crash/no-crash model via a threshold sweep")
		return "business goal: identify crash-prone road segments for works programming", nil
	}})
	p.Add(crisp.DataUnderstanding, crisp.Step{Name: "generate and profile", Run: func(log *crisp.Log) (string, error) {
		var err error
		study, err = core.NewStudy(cfg)
		if err != nil {
			return "", err
		}
		segs, total, surveyed := study.Net.Totals()
		log.Notef("network: %d segments, %d with crashes", len(study.Net.Segments), segs)
		log.Notef("crashes: %d total, %d on F60-surveyed roads", total, surveyed)
		return fmt.Sprintf("usable crash instances: %d; zero-altered counting set: %d",
			study.CrashOnlyDataset().Len(), study.CombinedDataset().Len()-study.CrashOnlyDataset().Len()), nil
	}})
	p.Add(crisp.DataPreparation, crisp.Step{Name: "derive crash-proneness series", Run: func(log *crisp.Log) (string, error) {
		rows, err := study.Table1()
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			log.Notef("%s: %d non-prone vs %d prone", r.Label, r.NonProne, r.Prone)
		}
		return fmt.Sprintf("derived %d crash-proneness datasets", len(rows)), nil
	}})
	p.Add(crisp.Modeling, crisp.Step{Name: "phase 1 and 2 tree sweeps", Run: func(log *crisp.Log) (string, error) {
		t3, err := study.Table3()
		if err != nil {
			return "", err
		}
		t4, err := study.Table4()
		if err != nil {
			return "", err
		}
		if best1, err = core.BestThreshold(t3); err != nil {
			return "", err
		}
		if best2, err = core.BestThreshold(t4); err != nil {
			return "", err
		}
		log.Notef("phase 1 MCPV peak at >%d", best1)
		log.Notef("phase 2 MCPV peak at >%d", best2)
		return "tree sweeps complete", nil
	}})
	p.Add(crisp.Evaluation, crisp.Step{Name: "assess with MCPV, Kappa and clustering", Run: func(log *crisp.Log) (string, error) {
		res, err := study.Phase3()
		if err != nil {
			return "", err
		}
		log.Notef("clustering: %d very-low-crash clusters, ANOVA p=%.3g", res.VeryLowClusters, res.Anova.PValue)
		return fmt.Sprintf("crash-proneness threshold selected between >%d and >%d crashes per 4 years", min(best1, best2), max(best1, best2)), nil
	}})
	p.Add(crisp.Deployment, crisp.Step{Name: "report", Run: func(log *crisp.Log) (string, error) {
		return "threshold and rule set handed to road asset management", nil
	}})
	if err := p.Run(); err != nil {
		return err
	}
	fmt.Print(p.Report())
	return nil
}
