package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"sfcsched/internal/obs"
)

// newObsMux builds the observability endpoint over reg: /metrics
// (Prometheus text format of the sinks registered in reg) and the pprof
// suite under /debug/pprof/. A run registers only the sinks it owns: a
// -serve run its scheduler's and dispatcher's, an experiment none.
func newObsMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveObs starts the observability server over reg on addr and returns
// the bound listener (so ":0" is usable). The server runs until the process
// exits.
func serveObs(addr string, reg *obs.Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("schedbench: -http listen: %w", err)
	}
	srv := &http.Server{Handler: newObsMux(reg)}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
