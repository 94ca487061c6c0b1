package main

import (
	"context"
	"fmt"
	"sync"

	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
)

// runCtx carries shared state across experiments: the trace length and
// a memoised sweep cache, so Table 7 and the figures that share its grid
// simulate each (architecture, net-size set) only once.
type runCtx struct {
	// ctx cancels every sweep at its next chunk boundary; main wires
	// it to SIGINT/SIGTERM so an interrupted run leaves flushed event
	// streams and a clean checkpoint journal, not torn artifacts.
	ctx        context.Context
	refs       int
	checkpoint string
	// recorder is threaded into every sweep request; nil means off
	// (sweep normalises it to the no-op recorder).
	recorder telemetry.Recorder
	// engine runs every sweep.  It is left at the default except by
	// TestEngineGoldenArtifacts, which regenerates artifacts under both
	// engines and compares them.
	engine sweep.Engine

	mu     sync.Mutex
	sweeps map[string]*sweep.Result
}

func newRunCtx(ctx context.Context, refs int, checkpoint string) *runCtx {
	return &runCtx{ctx: ctx, refs: refs, checkpoint: checkpoint,
		sweeps: make(map[string]*sweep.Result)}
}

// run executes req on the context's engine, attaching the shared
// checkpoint journal when the request is checkpointable.  Requests with
// a config Override cannot be fingerprinted (the journal refuses them),
// so they always re-run.
func (c *runCtx) run(req sweep.Request) (*sweep.Result, error) {
	if req.Override == nil {
		req.Checkpoint = c.checkpoint
	}
	req.Engine = c.engine
	req.Recorder = c.recorder
	return sweep.RunContext(c.ctx, req)
}

// gridSweep runs (or returns the memoised) full Table 1 grid for an
// architecture over the given net sizes.
func (c *runCtx) gridSweep(arch synth.Arch, nets []int) (*sweep.Result, error) {
	key := fmt.Sprintf("%d:%v", arch, nets)
	c.mu.Lock()
	if r, ok := c.sweeps[key]; ok {
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()

	res, err := c.run(sweep.Request{
		Arch:   arch,
		Points: sweep.Grid(nets, arch.WordSize()),
		Refs:   c.refs,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.sweeps[key] = res
	c.mu.Unlock()
	return res, nil
}

// experiment is one reproducible artifact of the paper.
type experiment struct {
	id    string
	title string
	run   func(*runCtx) (artifact, error)
}

// experiments lists every artifact in the paper's order.  DESIGN.md's
// experiment index maps each id to its paper artifact and modules, and
// TestDesignIndexMatchesRegistry keeps the two in step.
var experiments = []experiment{
	{"table6", "Table 6: 360/85 sector cache vs set-associative (16 KB)", runTable6},
	{"table7", "Table 7: miss/traffic/nibble ratios, all architectures", runTable7},
	{"table8", "Table 8: load-forward on Z8000 compiler traces", runTable8},
	{"fig1", "Figure 1: PDP-11 miss vs traffic, net 32/128/512", figExperiment(synth.PDP11, []int{32, 128, 512}, false)},
	{"fig2", "Figure 2: PDP-11 miss vs traffic, net 64/256/1024", figExperiment(synth.PDP11, []int{64, 256, 1024}, false)},
	{"fig3", "Figure 3: Z8000 miss vs traffic, net 32/128/512", figExperiment(synth.Z8000, []int{32, 128, 512}, false)},
	{"fig4", "Figure 4: Z8000 miss vs traffic, net 64/256/1024", figExperiment(synth.Z8000, []int{64, 256, 1024}, false)},
	{"fig5", "Figure 5: VAX-11 miss vs traffic, net 64/256/1024", figExperiment(synth.VAX11, []int{64, 256, 1024}, false)},
	{"fig6", "Figure 6: System/370 miss vs traffic, net 64/256/1024", figExperiment(synth.S370, []int{64, 256, 1024}, false)},
	{"fig7", "Figure 7: PDP-11 nibble-mode, net 32/128/512", figExperiment(synth.PDP11, []int{32, 128, 512}, true)},
	{"fig8", "Figure 8: PDP-11 nibble-mode, net 64/256/1024", figExperiment(synth.PDP11, []int{64, 256, 1024}, true)},
	{"fig9", "Figure 9: load-forward, net 64/256 (Z8000 CCP/C1/C2)", runFigure9},
	{"compare", "Paper-vs-measured comparison over Table 7 anchors", runCompare},
	{"optsub", "Optimal sub-block size: linear vs nibble cost (doubling claim)", runOptimalSubBlock},
	{"ablate-repl", "Ablation: LRU vs FIFO vs Random replacement", runAblateReplacement},
	{"ablate-assoc", "Ablation: associativity 1/2/4/8", runAblateAssoc},
	{"ablate-lf", "Ablation: redundant vs optimized load-forward", runAblateLF},
	{"ablate-warm", "Ablation: cold-start vs warm-start accounting", runAblateWarm},
}
