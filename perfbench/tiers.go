package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"roadcrash/internal/router"
	"roadcrash/internal/serve"
)

// feedbackWindow is the replicas' join window on score-feedback. A label
// batch trails its scores by two requests per connection, so at most about
// six 256-row batches are scored between a score and its label.
const feedbackWindow = 4096

// drainTimeout bounds the graceful shutdown of a tier's listener. Tiers
// are stopped only once the client has read every answer, so what is left
// to drain are pooled connections nobody uses: the router's transport can
// dial a replica connection that never carries a request, and
// http.Server.Shutdown waits for such a connection until it is 5 s old.
const drainTimeout = 100 * time.Millisecond

// tiers is one running serving stack: its replicas, the router in front of
// them on score-routed, and the loopback listeners all of them serve on.
type tiers struct {
	entry   string // base URL the client sends to
	servers []*serve.Server
	rt      *router.Router
	cancel  context.CancelFunc
	errs    []chan error
}

// startTiers builds the workload's serving stack from the public
// constructors: a registry loaded from the model directory and a server per
// replica, the router over the replicas on score-routed, each mounted on its
// own loopback listener. It returns once the entry point answers a ready
// /healthz; the returned duration is the set-up time. tr wraps every mounted
// handler when tracing, and is nil otherwise.
func startTiers(w workload, modelDir string, tr *tracer) (*tiers, time.Duration, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	t := &tiers{cancel: cancel}
	replicas := 1
	if w.routed {
		replicas = 2
	}
	cfg := serve.Config{}
	if w.feedback {
		cfg.FeedbackWindow = feedbackWindow
	}
	var urls []string
	for i := 0; i < replicas; i++ {
		reg := serve.NewRegistry()
		if _, err := reg.LoadDir(modelDir); err != nil {
			t.stop()
			return nil, 0, err
		}
		srv := serve.New(reg, cfg)
		url, err := t.mount(ctx, tr.wrap(layerServe, i, srv))
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		t.servers = append(t.servers, srv)
		urls = append(urls, url)
	}
	t.entry = urls[0]
	if w.routed {
		rt, err := router.New(router.Config{Replicas: urls, JitterSeed: 1})
		if err != nil {
			t.stop()
			return nil, 0, err
		}
		rt.Start()
		t.rt = rt
		if t.entry, err = t.mount(ctx, tr.wrap(layerRouter, 0, rt)); err != nil {
			t.stop()
			return nil, 0, err
		}
	}
	if err := waitReady(t.entry); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(start), nil
}

// mount serves h on a fresh loopback listener and returns its base URL.
func (t *tiers) mount(ctx context.Context, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	errc := make(chan error, 1)
	t.errs = append(t.errs, errc)
	go func() { errc <- serve.RunListener(ctx, ln, h, drainTimeout) }()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every tier down and waits for each listener to drain.
func (t *tiers) stop() error {
	if t.rt != nil {
		t.rt.Close()
	}
	t.cancel()
	var errs []error
	for _, errc := range t.errs {
		if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// waitReady polls base/healthz until it reports ready.
func waitReady(base string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && strings.Contains(string(body), `"ready":true`) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
