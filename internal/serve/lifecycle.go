package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"expertfind/internal/obs"
)

// Gate is a swappable front door for the process's HTTP listener. It
// lets the socket open before recovery finishes: while booting it
// answers readiness probes honestly (/readyz 503, /healthz 200) and
// refuses everything else, and once the engine has recovered the real
// *Server is installed atomically. Load balancers therefore see a
// bind-then-ready sequence instead of connection-refused, and no query
// can ever reach a half-recovered engine.
type Gate struct {
	cur atomic.Pointer[http.Handler]
}

// NewGate returns a gate serving the boot handler.
func NewGate() *Gate {
	g := &Gate{}
	h := bootHandler()
	g.cur.Store(&h)
	return g
}

// Install atomically swaps in the recovered server (or any handler).
// Requests already dispatched to the boot handler finish there;
// everything after the swap sees h.
func (g *Gate) Install(h http.Handler) { g.cur.Store(&h) }

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*g.cur.Load()).ServeHTTP(w, r)
}

// bootHandler answers probes during the boot window. /healthz reports
// the process alive (it is — it's recovering), /readyz reports it not
// ready, and every other route is refused so nothing observes partial
// state.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	env := Envelope{Metrics: NewEnvelopeMetrics(obs.Default())} // no engine yet, so no registry of its own
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		env.WriteJSON(w, http.StatusOK, ReadyResponse{Status: "booting"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Booting is transient by definition; tell probes when to look again.
		retryLater(w)
		env.WriteJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "loading"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		retryLater(w)
		http.Error(w, "engine not ready, still recovering", http.StatusServiceUnavailable)
	})
	return mux
}

// ListenAndServeContext serves the gate on addr until ctx is cancelled,
// then shuts down gracefully: onDrain (optional) runs first — flip the
// installed server's readiness gate there so probes go 503 — then the
// listener closes and in-flight requests get up to drain to finish
// before being cut off (and counted in reg). It returns nil on a clean
// drain; the caller then flushes durable state (final snapshot, WAL
// close) knowing no handler is still mutating the engine.
func (g *Gate) ListenAndServeContext(ctx context.Context, addr string, drain time.Duration, onDrain func(), reg *obs.Registry, log *slog.Logger) error {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if log == nil {
		log = obs.NopLogger()
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           g,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // listener failed before any shutdown was asked for
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	log.Info("shutdown_draining", "drain", drain)
	dctx := context.Background()
	cancel := func() {}
	if drain > 0 {
		dctx, cancel = context.WithTimeout(dctx, drain)
	}
	defer cancel()
	err := srv.Shutdown(dctx)
	if err != nil {
		// Requests outlasted the drain window: cut them off rather than
		// hang shutdown forever. Durable state stays consistent — an
		// interrupted update either reached the WAL or was never acked.
		reg.Counter("expertfind_http_drain_timeouts_total",
			"Graceful shutdowns that hit the drain deadline and forced close.").Inc()
		srv.Close()
	}
	<-errc // Serve has returned (http.ErrServerClosed)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve: drain deadline exceeded after %v", drain)
	}
	return err
}
