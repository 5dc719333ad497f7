package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// Run serves handler on addr until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately (no new connections), while
// requests already in flight — including long /score/stream responses —
// drain to completion for up to drain before the remaining connections
// are forced closed. It returns nil on a clean drain.
func Run(ctx context.Context, addr string, handler http.Handler, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return RunListener(ctx, ln, handler, drain)
}

// readHeaderTimeout bounds the header phase of every request, counted
// from its first byte, on every listener RunListener serves: a client
// that sends half a header is cut off, while a keep-alive connection may
// still idle between requests. Body deadlines, where an endpoint has
// one, are the endpoint's own (Config.RequestTimeout, StreamTimeout).
const readHeaderTimeout = 5 * time.Second

// RunListener is Run over an existing listener — the injectable form used
// by tests (listen on :0, read the bound address) and by callers managing
// their own sockets. It owns the listener and closes it on return.
func RunListener(ctx context.Context, ln net.Listener, handler http.Handler, drain time.Duration) error {
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; any return before cancellation is a
		// real failure.
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// The drain window expired with requests still running: force
		// the connections closed and surface the deadline error.
		srv.Close()
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
