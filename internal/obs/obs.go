// Package obs exposes the frame pipeline's measurements. The paper's
// whole premise is a ~1/8 s command-to-display loop (§1.2); Bethel et
// al.'s remote-visualization experience (PAPERS.md) is that such
// pipelines only get fast once every stage is measured separately. Each
// subsystem keeps its own counters (server.Stats holds the per-round
// stage timings and memoization counts); obs gives them a process-wide
// expvar export and an opt-in debug HTTP endpoint carrying expvar and
// pprof.
package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// PublishFunc exports a snapshot function as an expvar under name, e.g.
// a server's Stats or the shared timestep cache's counters. Like
// expvar.Publish, it must be called at most once per name per process
// (typically from the server main).
func PublishFunc(name string, fn func() any) {
	expvar.Publish(name, expvar.Func(fn))
}

// DebugServer is an opt-in HTTP endpoint exposing expvar (/debug/vars)
// and pprof (/debug/pprof/) on its own mux, so enabling observability
// never exposes the windtunnel's dlib port to HTTP.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts a DebugServer on addr (e.g. "localhost:6060").
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux}}
	go d.srv.Serve(ln)
	return d, nil
}

// Addr returns the endpoint's bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the endpoint down.
func (d *DebugServer) Close() error { return d.srv.Close() }
