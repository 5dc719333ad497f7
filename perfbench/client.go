package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the client's connection and goroutine count: one closed-loop
// caller per CPU of the 2-CPU machine the benchmark was sized on.
const conns = 2

// labelLag is how many /score requests a connection sends between scoring
// a batch and posting that batch's labels on score-feedback.
const labelLag = 2

// client is the benchmark's closed-loop load generator. Each of its conns
// workers owns one keep-alive connection and sends its next request only
// after the previous answer was read in full and checked against the
// reference. Bodies are rendered before any clock starts; the workers share
// one cursor over the body pool.
type client struct {
	w       workload
	in      *inputs
	url     string // primary request URL
	fbURL   string
	hc      *http.Client
	tr      *tracer
	next    atomic.Int64
	workers []*worker
}

// worker is one connection's state, reused across phases so the timed
// phase allocates no client buffers.
type worker struct {
	buf     bytes.Buffer
	lat     []time.Duration
	served  []bool // bodies answered correctly at least once
	pending []int  // scored bodies whose labels are not yet posted
	st      phase
}

// phase is what one client run observed.
type phase struct {
	elapsed   time.Duration
	attempted int64 // requests on every endpoint
	failed    int64
	primary   int64 // successful primary requests
	rows      int64 // rows scored, or cells returned on /hotspots
	labels    int64 // labels posted to /feedback
	matched   int64 // labels the replica joined to a served score
	lat       []time.Duration
	errs      []string
}

// newClient prepares the client and sizes its per-worker buffers, before
// the tiers exist so that the heap baseline already holds them.
func newClient(w workload, in *inputs, tr *tracer, maxSamples int) *client {
	c := &client{
		w: w, in: in, tr: tr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
	for i := 0; i < conns; i++ {
		wk := &worker{lat: make([]time.Duration, 0, maxSamples), served: make([]bool, len(in.bodies))}
		wk.buf.Grow(w.respBytes)
		c.workers = append(c.workers, wk)
	}
	return c
}

// target points the client at the tiers' entry point.
func (c *client) target(base string) {
	c.url = base + c.w.path
	c.fbURL = base + "/feedback"
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run drives the workload for d and returns the merged observations.
func (c *client) run(d time.Duration) phase {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, wk := range c.workers {
		wk.lat = wk.lat[:0]
		wk.pending = wk.pending[:0]
		wk.st = phase{}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			c.loop(wk, end)
		}(wk)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for _, wk := range c.workers {
		p.attempted += wk.st.attempted
		p.failed += wk.st.failed
		p.primary += wk.st.primary
		p.rows += wk.st.rows
		p.labels += wk.st.labels
		p.matched += wk.st.matched
		p.lat = append(p.lat, wk.lat...)
		p.errs = append(p.errs, wk.st.errs...)
	}
	return p
}

func (c *client) loop(wk *worker, end time.Time) {
	for time.Now().Before(end) {
		b := 0
		if n := len(c.in.bodies); n > 0 {
			b = int((c.next.Add(1) - 1) % int64(n))
		}
		traced := c.tr != nil && c.tr.on.Load()
		start := time.Now()
		rows, err := c.primary(wk, b)
		d := time.Since(start)
		wk.st.attempted++
		if err != nil {
			wk.fail(err)
			continue
		}
		if traced {
			c.tr.record(layerClient, 0, epPrimary, start, d)
		}
		wk.lat = append(wk.lat, d)
		wk.st.primary++
		wk.st.rows += int64(rows)
		if len(wk.served) > 0 {
			wk.served[b] = true
		}
		if c.w.feedback {
			wk.pending = append(wk.pending, b)
			if len(wk.pending) > labelLag {
				c.postLabels(wk, wk.pending[0], traced)
				wk.pending = append(wk.pending[:0], wk.pending[1:]...)
			}
		}
	}
}

func (wk *worker) fail(err error) {
	wk.st.failed++
	if len(wk.st.errs) < 3 {
		wk.st.errs = append(wk.st.errs, err.Error())
	}
}

// primary sends body b (or the hotspot query) and checks the answer,
// returning the rows it carried.
func (c *client) primary(wk *worker, b int) (int, error) {
	if c.in.bodies == nil {
		body, err := c.do(wk, http.MethodGet, c.url, nil)
		if err != nil {
			return 0, err
		}
		return len(c.in.cells), checkCells(body, c.in.cells)
	}
	body, err := c.do(wk, http.MethodPost, c.url, c.in.bodies[b])
	if err != nil {
		return 0, err
	}
	if c.w.stream {
		err = checkStream(body, c.in.refs[b])
	} else {
		err = checkScore(body, c.in.refs[b])
	}
	return len(c.in.refs[b]), err
}

// postLabels sends body b's labels to /feedback.
func (c *client) postLabels(wk *worker, b int, traced bool) {
	start := time.Now()
	body, err := c.do(wk, http.MethodPost, c.fbURL, c.in.labels[b])
	matched := 0
	if err == nil {
		matched, err = checkFeedback(body, len(c.in.refs[b]))
	}
	wk.st.attempted++
	if err != nil {
		wk.fail(fmt.Errorf("/feedback: %w", err))
		return
	}
	if traced {
		c.tr.record(layerClient, 0, epFeedback, start, time.Since(start))
	}
	wk.st.labels += int64(len(c.in.refs[b]))
	wk.st.matched += int64(matched)
}

// do sends one request and reads the whole answer into the worker's
// buffer. A non-200 status is an error.
func (c *client) do(wk *worker, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	wk.buf.Reset()
	_, err = wk.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, wk.buf.Bytes())
	}
	return wk.buf.Bytes(), nil
}
