package telemetry

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Flags is the shared observability flag bundle, so every command
// exposes the same vocabulary:
//
//	-pprof, -cpuprofile, -memprofile        (RegisterFlags: all commands)
//	-events, -manifest, -progress, -heartbeat (RegisterSweepFlags: sweep drivers)
//
// After flag parsing, Start turns the bundle into a live Session.
type Flags struct {
	Pprof      string
	CPUProfile string
	MemProfile string
	Version    bool

	Events    string
	Manifest  string
	Progress  bool
	Heartbeat time.Duration

	sweep bool
}

// RegisterFlags registers the profiling flags every command shares.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060; :0 picks a port) for live profiling")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile at exit to `file`")
	fs.BoolVar(&f.Version, "version", false, "print the build version and exit")
	return f
}

// PrintVersion writes the standard one-line version report.
func PrintVersion(tool string) {
	fmt.Printf("%s %s %s %s/%s\n", tool, Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// RegisterSweepFlags additionally registers the sweep-driver telemetry
// flags: the event stream, the run manifest and the progress line.
func (f *Flags) RegisterSweepFlags(fs *flag.FlagSet) {
	f.sweep = true
	fs.StringVar(&f.Events, "events", "", "write the structured telemetry event stream (JSONL) to `file`")
	fs.StringVar(&f.Manifest, "manifest", "", "write a RUN.json run manifest to `file` at exit")
	fs.BoolVar(&f.Progress, "progress", false, "print a single updating progress line (points done, refs/sec, ETA) to stderr")
	fs.DurationVar(&f.Heartbeat, "heartbeat", time.Second, "heartbeat/progress `interval`")
}

// Session is a command's live observability state: the recorder to
// thread into the pipeline, plus the profiles, pprof server, event
// sink, progress line and manifest that Close finalises.
type Session struct {
	// Manifest collects run metadata; commands mark it interrupted
	// before Close, which writes it if -manifest was given.  Always
	// non-nil.
	Manifest *Manifest

	flags     *Flags
	start     time.Time
	run       *Run // nil when only profiling flags are active
	progress  *Progress
	stopCPU   func()
	stopPprof func()
}

// Start materialises the flag bundle: opens the event sink, starts
// the heartbeat, progress line, pprof server and CPU profile.
// fingerprint should hash whatever determines the run's results (see
// Fingerprint); it lands in the manifest.
func (f *Flags) Start(tool, fingerprint string) (*Session, error) {
	if f.Version {
		PrintVersion(tool)
		os.Exit(0)
	}
	s := &Session{flags: f, start: time.Now(), Manifest: NewManifest(tool, fingerprint)}

	var sink Sink
	if f.Events != "" {
		js, err := CreateJSONLSink(f.Events)
		if err != nil {
			return nil, err
		}
		sink = js
		s.Manifest.EventsFile = f.Events
	}
	if f.Progress {
		s.progress = NewProgress(os.Stderr, tool)
	}
	if sink != nil || s.progress != nil || f.Manifest != "" {
		opts := Options{Sink: sink, TraceID: fingerprint}
		if sink != nil || s.progress != nil {
			opts.Heartbeat = f.Heartbeat
		}
		if s.progress != nil {
			opts.OnHeartbeat = s.progress.Update
		}
		s.run = NewRun(opts)
	}

	if f.Pprof != "" {
		addr, stop, err := ServePprof(f.Pprof)
		if err != nil {
			s.abort()
			return nil, err
		}
		s.stopPprof = stop
		fmt.Fprintf(os.Stderr, "%s: pprof listening on http://%s/debug/pprof/\n", tool, addr)
	}
	if f.CPUProfile != "" {
		stop, err := StartCPUProfile(f.CPUProfile)
		if err != nil {
			s.abort()
			return nil, err
		}
		s.stopCPU = stop
	}
	return s, nil
}

// Recorder returns the recorder to thread into the pipeline (Nop when
// no telemetry output was requested, so callers never branch).
func (s *Session) Recorder() Recorder {
	if s.run == nil {
		return Nop
	}
	return s.run
}

// abort tears down a half-started session.
func (s *Session) abort() {
	if s.run != nil {
		s.run.Close()
	}
	if s.stopPprof != nil {
		s.stopPprof()
	}
	if s.stopCPU != nil {
		s.stopCPU()
	}
}

// Close finalises the session: final heartbeat, progress line, event
// sink flush, RUN.json manifest, profiles, pprof server.  It returns
// the first error; simulation results are unaffected either way.
func (s *Session) Close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.run != nil {
		keep(s.run.CloseInterrupted(s.Manifest.Interrupted))
		if s.progress != nil {
			s.progress.Done(s.run.Snapshot())
		}
	}
	if s.flags.Manifest != "" {
		s.Manifest.Finish(s.start, s.run)
		keep(s.Manifest.Write(s.flags.Manifest))
	}
	if s.stopCPU != nil {
		s.stopCPU()
	}
	if s.flags.MemProfile != "" {
		keep(WriteHeapProfile(s.flags.MemProfile))
	}
	if s.stopPprof != nil {
		s.stopPprof()
	}
	return first
}
