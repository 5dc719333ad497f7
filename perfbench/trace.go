package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own code: the client times each
// request, and wrap times the http.Handler of each tier it mounts. The
// ResponseWriter is never wrapped, so the stream handler keeps its
// http.ResponseController deadlines and full duplex.

type layerID int

const (
	layerClient layerID = iota
	layerRouter
	layerServe
	numLayers
)

var layerNames = [numLayers]string{"client", "router", "serve"}

// Endpoint classes: the workload's primary endpoint and /feedback. The
// router's health polls and every other path are not counted.
const (
	epPrimary = iota
	epFeedback
	numEndpoints
)

func endpointOf(path string) int {
	switch path {
	case "/score", "/score/stream", "/hotspots":
		return epPrimary
	case "/feedback":
		return epFeedback
	}
	return -1
}

// maxReplicas is the widest fleet a workload mounts.
const maxReplicas = 2

type agg struct{ n, ns atomic.Int64 }

type span struct {
	layer   layerID
	replica int
	ep      int
	start   time.Duration // since the tracer started
	dur     time.Duration
}

// tracer keeps spans in memory while on. Aggregates cover every span; the
// raw log keeps the first len(spans) of them for the dump.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	aggs  [numLayers][maxReplicas][numEndpoints]agg
	spans []span
	next  atomic.Int64
}

func newTracer(keep int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, keep)}
}

// wrap returns h timed as one span per counted request while tracing is on;
// with a nil tracer it returns h itself.
func (tr *tracer) wrap(l layerID, replica int, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointOf(r.URL.Path)
		if ep < 0 || !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(l, replica, ep, start, time.Since(start))
	})
}

func (tr *tracer) record(l layerID, replica, ep int, start time.Time, d time.Duration) {
	a := &tr.aggs[l][replica][ep]
	a.n.Add(1)
	a.ns.Add(int64(d))
	if i := tr.next.Add(1) - 1; i < int64(len(tr.spans)) {
		tr.spans[i] = span{layer: l, replica: replica, ep: ep, start: start.Sub(tr.t0), dur: d}
	}
}

// count and total sum a layer's spans on one endpoint over all replicas.
func (tr *tracer) count(l layerID, ep int) int64 {
	var n int64
	for r := range tr.aggs[l] {
		n += tr.aggs[l][r][ep].n.Load()
	}
	return n
}

func (tr *tracer) total(l layerID, ep int) time.Duration {
	var ns int64
	for r := range tr.aggs[l] {
		ns += tr.aggs[l][r][ep].ns.Load()
	}
	return time.Duration(ns)
}

// dump writes the kept spans as tab-separated lines.
func (tr *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer\treplica\tendpoint\tstart_ns\tdur_ns")
	n := min(tr.next.Load(), int64(len(tr.spans)))
	for _, s := range tr.spans[:n] {
		ep := "primary"
		if s.ep == epFeedback {
			ep = "feedback"
		}
		fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\n", layerNames[s.layer], s.replica, ep, s.start.Nanoseconds(), s.dur.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeNames are the runtime/metrics the traced run reads around each
// traced phase.
var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

// runtimeStats accumulates runtime/metrics deltas over traced phases.
type runtimeStats struct {
	allocs  uint64
	gcCPU   float64
	usedCPU float64
	buckets []float64 // scheduler-latency histogram boundaries
	sched   []uint64  // scheduler-latency counts per bucket
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// add accumulates the change between two readRuntime samples.
func (rs *runtimeStats) add(before, after []metrics.Sample) {
	rs.allocs += after[0].Value.Uint64() - before[0].Value.Uint64()
	rs.gcCPU += after[1].Value.Float64() - before[1].Value.Float64()
	rs.usedCPU += (after[2].Value.Float64() - after[3].Value.Float64()) -
		(before[2].Value.Float64() - before[3].Value.Float64())
	hb, ha := before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram()
	if rs.sched == nil {
		rs.buckets = ha.Buckets
		rs.sched = make([]uint64, len(ha.Counts))
	}
	for i := range ha.Counts {
		rs.sched[i] += ha.Counts[i] - hb.Counts[i]
	}
}

// schedQuantile interpolates quantile q of the scheduler latencies, in
// seconds, linearly inside the bucket that holds it.
func (rs *runtimeStats) schedQuantile(q float64) float64 {
	var total uint64
	for _, c := range rs.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range rs.sched {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo, hi := rs.buckets[i], rs.buckets[i+1]
		if math.IsInf(lo, -1) {
			return hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return rs.buckets[len(rs.buckets)-1]
}
