// Command sweepd is the long-running sweep service: an HTTP/JSON
// daemon that accepts sweep requests (POST /v1/sweeps), schedules them
// on a bounded worker pool with admission control and per-tenant
// quotas, and serves results from a cache keyed by the checkpoint
// request fingerprint -- identical requests never simulate twice, and
// concurrent identical requests simulate exactly once (singleflight).
// A request names the sweep (arch, nets, refs, optional workloads) and
// its admission context (tenant, timeout_sec); the daemon picks the
// engine and shard count itself, and a request that names either gets
// 400.
//
// Usage:
//
//	sweepd [-addr HOST:PORT] [-dir DIR] [-workers N] [-queue N]
//	       [-tenant-quota N] [-max-refs N] [-grace DUR] [-stats FILE]
//	       [-cache-ttl DUR] [-cache-max-bytes N] [-retries N]
//	       [-retry-backoff DUR]
//	       [-pprof ADDR] [-cpuprofile FILE] [-memprofile FILE]
//
// Each job streams the structured telemetry event stream to
// <dir>/jobs/<id>/events.jsonl (tail it with GET /v1/sweeps/{id}/events)
// and journals completed workloads to a per-fingerprint checkpoint.
// On SIGINT/SIGTERM the daemon drains gracefully: it stops admitting
// (503), cancels still-queued jobs, gives in-flight sweeps -grace to
// finish, then cancels them at a chunk boundary -- the checkpoint
// journal keeps every completed workload, so resubmitting after a
// restart resumes bit-identically.  -stats writes the final service
// counter snapshot as JSON at exit.
//
// The daemon is crash-safe beyond the graceful path: every job state
// transition is journaled to <dir>/jobs.jsonl, so after a SIGKILL or
// power loss the next start re-admits every job that never reached a
// terminal state and resumes it from its checkpoint (GET /readyz
// answers 503 "recovering" until the backlog is terminal).  The result
// cache is verified on read (corrupt entries are quarantined under
// <dir>/cache/corrupt/ and re-simulated) and bounded by -cache-ttl and
// -cache-max-bytes; transient trace-source failures are retried up to
// -retries times with exponential backoff starting at -retry-backoff.
// docs/SERVICE.md ("Durability and recovery") has the full story.
//
// The API, cache semantics and drain behavior are documented in
// docs/SERVICE.md; cmd/sweeploadgen is the matching load harness.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"subcache/internal/service"
	"subcache/internal/telemetry"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address (host:port; port 0 picks one)")
		dir     = flag.String("dir", "sweepd-data", "data directory (result cache, checkpoints, event streams)")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "admission queue depth; submits beyond it get 429")
		quota   = flag.Int("tenant-quota", 8, "max live (queued+running) jobs per tenant; beyond it 429")
		maxRefs = flag.Int("max-refs", 2_000_000, "largest per-workload trace length a request may ask for")
		grace   = flag.Duration("grace", 30*time.Second, "drain grace period for in-flight sweeps on SIGTERM")
		stats   = flag.String("stats", "", "write the final service counter snapshot (JSON) to `file` at exit")

		cacheTTL = flag.Duration("cache-ttl", 0, "result-cache entry lifetime (0 = service default of 168h, negative = never expire)")
		cacheMax = flag.Int64("cache-max-bytes", 0, "result-cache size cap in bytes, LRU past it (0 = service default of 256 MiB, negative = unbounded)")
		retries  = flag.Int("retries", 0, "max retries of a transiently failed sweep (0 = service default of 2, negative = never retry)")
		backoff  = flag.Duration("retry-backoff", 0, "base exponential retry backoff (0 = service default of 250ms)")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	sess, err := tf.Start("sweepd", telemetry.Fingerprint("tool=sweepd"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(2)
	}

	srv, err := service.New(service.Options{
		Dir:           *dir,
		Workers:       *workers,
		QueueDepth:    *queue,
		TenantQuota:   *quota,
		MaxRefs:       *maxRefs,
		CacheTTL:      *cacheTTL,
		CacheMaxBytes: *cacheMax,
		MaxRetries:    *retries,
		RetryBackoff:  *backoff,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		sess.Close()
		os.Exit(1)
	}
	if n := srv.Recovering(); n > 0 {
		fmt.Printf("sweepd: recovered %d interrupted job(s) from the journal; /readyz reports 503 until they finish\n", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		sess.Close()
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv}
	fmt.Printf("sweepd %s: listening on http://%s (data dir %s)\n", telemetry.Version, ln.Addr(), *dir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exit := 0
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		exit = 1
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Fprintf(os.Stderr, "sweepd: draining (grace %v)...\n", *grace)
		dctx, cancel := context.WithTimeout(context.Background(), *grace)
		if err := srv.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: drain grace expired; in-flight sweeps checkpointed and cancelled\n")
		}
		cancel()
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(hctx)
		hcancel()
	}

	snap := srv.Stats()
	if b, err := json.MarshalIndent(snap, "", "  "); err == nil {
		fmt.Fprintf(os.Stderr, "sweepd: final stats: %s\n", b)
		if *stats != "" {
			if err := telemetry.WriteFileAtomic(*stats, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "sweepd:", err)
				exit = 1
			}
		}
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd: telemetry:", err)
		exit = 1
	}
	os.Exit(exit)
}
