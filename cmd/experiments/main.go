// Command experiments regenerates every table and figure of Hill &
// Smith (ISCA 1984) from the synthetic workload suites, writing each
// artifact to the results directory as aligned text and CSV.
//
// Usage:
//
//	experiments [-refs N] [-out DIR] [-run LIST] [-checkpoint FILE] [-list] [-ascii]
//	            [-pprof ADDR] [-cpuprofile FILE] [-memprofile FILE]
//	            [-events FILE] [-manifest FILE] [-progress]
//
// where LIST is a comma-separated subset of the experiment ids printed
// by -list (default "all").  The paper's runs use one million references
// per trace (-refs 1000000, the default).  Sweeps run on the multipass
// engine with a shard count picked from the machine; neither choice
// changes the artifacts, which TestEngineGoldenArtifacts checks
// against the reference engine byte for byte.
//
// The shared observability bundle (internal/telemetry) adds profiling
// (-pprof, -cpuprofile, -memprofile), a structured JSONL event stream
// (-events), a RUN.json run manifest (-manifest) and a live progress
// line (-progress).  All are off by default and none changes the
// artifacts; see docs/OBSERVABILITY.md.
//
// SIGINT/SIGTERM interrupt cleanly: in-flight sweeps stop at their
// next chunk boundary, the event stream is flushed and closed (ending
// on the terminal run-end event), RUN.json records interrupted: true,
// the checkpoint journal keeps every completed workload for a resumed
// rerun, and the process exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"subcache/internal/telemetry"
)

func main() {
	var (
		refs  = flag.Int("refs", 1000000, "references per workload trace")
		out   = flag.String("out", "results", "output directory")
		run   = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		ckpt  = flag.String("checkpoint", "", "journal `file`: record each finished workload sweep and, on a rerun, resume past the recorded ones (ablations with config overrides always re-run)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		ascii = flag.Bool("ascii", false, "also print ASCII renderings of figures")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	tf.RegisterSweepFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.id, e.title)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	sess, err := tf.Start("experiments", telemetry.Fingerprint(
		fmt.Sprint("refs=", *refs), fmt.Sprint("run=", *run)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	want := map[string]bool{}
	all := *run == "all"
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}

	// SIGINT/SIGTERM cancel the shared context: every sweep stops at
	// its next chunk boundary, the event sink is flushed and closed on
	// the way out, RUN.json records interrupted: true, and the process
	// exits non-zero.  The checkpoint journal already ends on a clean
	// fsynced record (each workload is journalled as it finishes), so a
	// rerun resumes past the completed sweeps.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx := newRunCtx(sigCtx, *refs, *ckpt)
	ctx.recorder = sess.Recorder()
	failed := false
	var ran []experiment
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		if sigCtx.Err() != nil {
			break
		}
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.id, e.title)
		art, err := e.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			failed = true
			continue
		}
		if err := writeArtifact(*out, e.id, art, *ascii); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			failed = true
			continue
		}
		ran = append(ran, e)
		fmt.Printf("   done in %v -> %s/%s.txt\n", time.Since(start).Round(time.Millisecond), *out, e.id)
	}
	if len(ran) > 0 {
		if err := writeIndex(*out, *refs, ran); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: index: %v\n", err)
			failed = true
		}
	}
	if sigCtx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; completed artifacts and the checkpoint journal are intact")
		sess.Manifest.Interrupted = true
		failed = true
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: telemetry:", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// writeIndex records what the output directory holds and with what
// parameters, so a results directory is self-describing.  It lists, in
// registry order, every experiment whose text artifact is present:
// those this run wrote, at refs, and those an earlier run wrote, at the
// length the earlier index gives them.  A partial run therefore adds to
// the index instead of truncating it.
func writeIndex(dir string, refs int, ran []experiment) error {
	lengths := indexedRefs(filepath.Join(dir, "INDEX.md"))
	for _, e := range ran {
		lengths[e.id] = refs
	}
	var rows []experiment
	uniform := true
	for _, e := range experiments {
		n, ok := lengths[e.id]
		if _, err := os.Stat(filepath.Join(dir, e.id+".txt")); !ok || err != nil {
			continue
		}
		uniform = uniform && (len(rows) == 0 || n == lengths[rows[0].id])
		rows = append(rows, e)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Results index\n\n")
	if uniform && len(rows) > 0 {
		fmt.Fprintf(&b, "Generated by `cmd/experiments` with %d references per workload.\n\n", lengths[rows[0].id])
	} else {
		fmt.Fprintf(&b, "Generated by `cmd/experiments` in runs of different lengths; `refs` is each artifact's references per workload.\n\n")
	}
	fmt.Fprintf(&b, "| id | artifact | refs | files |\n|---|---|---|---|\n")
	for _, e := range rows {
		files := fmt.Sprintf("`%s.txt`", e.id)
		if _, err := os.Stat(filepath.Join(dir, e.id+".csv")); err == nil {
			files += fmt.Sprintf(", `%s.csv`", e.id)
		}
		if _, err := os.Stat(filepath.Join(dir, e.id+".svg")); err == nil {
			files += fmt.Sprintf(", `%s.svg`", e.id)
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %s |\n", e.id, e.title, lengths[e.id], files)
	}
	return os.WriteFile(filepath.Join(dir, "INDEX.md"), []byte(b.String()), 0o644)
}

// indexedRefs reads the references per workload that an existing index
// gives each artifact: its row's refs cell or, in an index without that
// column, the length in the header.  A missing index gives none.
func indexedRefs(path string) map[string]int {
	lengths := make(map[string]int)
	data, err := os.ReadFile(path)
	if err != nil {
		return lengths
	}
	header := 0
	for _, line := range strings.Split(string(data), "\n") {
		fmt.Sscanf(line, "Generated by `cmd/experiments` with %d references", &header)
		cells := strings.Split(line, " | ")
		if len(cells) < 3 || !strings.HasPrefix(line, "| ") {
			continue
		}
		n, err := strconv.Atoi(cells[len(cells)-2])
		if err != nil {
			n = header
		}
		if n > 0 {
			lengths[strings.TrimPrefix(cells[0], "| ")] = n
		}
	}
	return lengths
}

// artifact is one experiment's output: human text plus optional CSV
// and SVG renderings.
type artifact struct {
	text string
	csv  string
	svg  string
}

func writeArtifact(dir, id string, art artifact, ascii bool) error {
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), []byte(art.text), 0o644); err != nil {
		return err
	}
	if art.csv != "" {
		if err := os.WriteFile(filepath.Join(dir, id+".csv"), []byte(art.csv), 0o644); err != nil {
			return err
		}
	}
	if art.svg != "" {
		if err := os.WriteFile(filepath.Join(dir, id+".svg"), []byte(art.svg), 0o644); err != nil {
			return err
		}
	}
	if ascii {
		fmt.Println(art.text)
	}
	return nil
}
