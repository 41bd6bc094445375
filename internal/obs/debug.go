package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// debugRecorder is the recorder the process-wide expvar export reads.
// expvar.Publish is global and permanent, so the export indirects
// through this pointer instead of capturing one recorder — the last
// ServeDebug call wins, and tests can serve repeatedly.
var debugRecorder atomic.Pointer[Recorder]

// publishOnce guards the process-global expvar registration.
var publishOnce sync.Once

// DebugServer is a live telemetry HTTP server: net/http/pprof profiles
// under /debug/pprof/, expvar (including the recorder's instruments
// under the "baexp_obs" variable) under /debug/vars, and a plain JSONL
// metrics snapshot under /metrics.
type DebugServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// ServeDebug starts the telemetry server on addr and installs r as the
// recorder behind the expvar export. The server runs until Close; a
// failed listen is returned immediately.
func ServeDebug(addr string, r *Recorder) (*DebugServer, error) {
	publishOnce.Do(func() {
		expvar.Publish("baexp_obs", expvar.Func(func() any {
			return debugRecorder.Load().Snapshot()
		}))
	})
	debugRecorder.Store(r)

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := debugRecorder.Load().WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: pprof listen %s: %w", addr, err)
	}
	s := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Close
	return s, nil
}

// Close shuts the server down. Safe on the nil handle.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
