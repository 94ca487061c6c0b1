package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"
)

// Profiling hooks: the net/http/pprof endpoint for live inspection of
// a running sweep, and the start/stop CPU- and heap-profile helpers
// every command shares.

// ServePprof starts an HTTP server exposing the standard
// /debug/pprof/ endpoints on addr (e.g. "localhost:6060"; ":0" picks
// a free port).  It returns the bound address and a shutdown
// function.  The server uses its own mux, so nothing else leaks onto
// the profiling port.
func ServePprof(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: -pprof %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close; nothing to report
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// StartCPUProfile begins a CPU profile written to path, returning the
// stop function.
func StartCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: -cpuprofile: %w", err)
	}
	if err := rpprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("telemetry: -cpuprofile: %w", err)
	}
	return func() {
		rpprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile garbage-collects (so the profile shows retained
// objects, not garbage) and writes a heap profile to path.
func WriteHeapProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: -memprofile: %w", err)
	}
	defer f.Close()
	if err := rpprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("telemetry: -memprofile: %w", err)
	}
	return nil
}
