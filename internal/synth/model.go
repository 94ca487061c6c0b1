// Package synth generates synthetic address traces with controllable
// locality, substituting for the paper's production-program traces
// (Tables 2-5), which no longer exist in distributable form.
//
// The generator is an explicit program-behaviour model rather than a
// noise source.  Its instruction stream executes sequential runs of
// instructions, loops over them with geometric iteration counts, and
// transfers control with the forward bias the paper relies on for
// load-forward ("a program typically branches to a random location
// within a cache block, proceeds sequentially forward, and then branches
// again", §4.4).  Its data stream mixes stack references, Zipf-selected
// hot scalars, forward-moving sequential streams (arrays and strings)
// and uniform references over the data region.  Temporal locality comes
// from loops, the stack and hot scalars; spatial locality from
// sequential runs and streams; and the overall working-set size -- the
// knob that separates the paper's four architectures -- from the code
// and data region sizes.
//
// Everything is deterministic given the profile's seed, so runs are
// repeatable exactly as trace-driven simulation requires.
package synth

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"subcache/internal/addr"
	"subcache/internal/rng"
	"subcache/internal/trace"
)

// Profile parameterises one synthetic workload.  The catalog in this
// package provides profiles standing in for each trace in the paper's
// Tables 2-5.
type Profile struct {
	// Name identifies the workload (e.g. "OPSYS").
	Name string
	// Arch is the architecture the workload models.
	Arch Arch
	// Seed makes the trace reproducible; each workload has its own.
	Seed uint64

	// --- Instruction stream ---

	// CodeSize is the span of the code region in bytes.  The dominant
	// influence on instruction miss ratio at a given cache size.
	CodeSize int
	// HotLoci is the number of frequently executed code locations
	// (loop heads, hot procedures) control transfers target.
	HotLoci int
	// CodeZipf skews locus selection; higher concentrates execution in
	// fewer loci (more temporal locality).
	CodeZipf float64
	// MeanRunLen is the mean number of instructions executed
	// sequentially between control transfers.
	MeanRunLen int
	// PLoop is the probability that a new run is a loop body that will
	// iterate; MeanLoopIter is the mean iteration count.
	PLoop        float64
	MeanLoopIter int
	// PNearJump is the probability a control transfer lands near the
	// current point (short forward skip) instead of at a hot locus.
	PNearJump float64
	// PhaseLoci and PhaseScalars bound the *active* working set: the
	// program executes in phases, each confined to a subset of the hot
	// loci and scalars, re-drawn (by Zipf rank) every MeanPhaseLen
	// instructions.  Phases are what give real programs their knee: a
	// cache that holds one phase's working set hits, a smaller one
	// misses on every locus revisit.  Zero disables phases (all loci
	// always active).
	PhaseLoci    int
	PhaseScalars int
	MeanPhaseLen int
	// InstrMin/InstrMax bound instruction lengths in bytes; actual
	// lengths are a deterministic hash of the address so that re-walks
	// of a loop body fetch identical addresses.
	InstrMin, InstrMax int
	// InstrGrain aligns instruction starts (2 for the 16-bit machines
	// and S/370's halfword alignment, 1 for the byte-aligned VAX).
	InstrGrain int

	// --- Data stream ---

	// DataRefsPerInstr is the mean number of data references issued per
	// instruction executed.
	DataRefsPerInstr float64
	// WriteFrac is the fraction of data references that are writes
	// (excluded from metrics but kept in the trace).
	WriteFrac float64
	// DataSize is the span of the data region in bytes.
	DataSize int
	// StackSize bounds the stack region; stack depth performs a
	// reflected random walk within it.
	StackSize int
	// HotScalars is the number of frequently referenced variables;
	// ScalarZipf skews their selection.
	HotScalars int
	ScalarZipf float64
	// Streams is the number of concurrent sequential data streams
	// (array walks, string scans); MeanStreamLen is the mean advance
	// count before a stream restarts elsewhere.
	Streams       int
	MeanStreamLen int
	// FracStack, FracScalar and FracStream apportion data references;
	// the remainder are uniform over the data region.
	FracStack, FracScalar, FracStream float64

	// AccessSize is the natural data operand size in bytes (the
	// machine's word: 2 or 4).
	AccessSize int
}

// Validate checks internal consistency of the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("synth: profile has no name")
	}
	if p.CodeSize <= 0 || p.DataSize <= 0 || p.StackSize <= 0 {
		return fmt.Errorf("synth %s: non-positive region size", p.Name)
	}
	if p.HotLoci <= 0 || p.HotScalars <= 0 || p.Streams <= 0 {
		return fmt.Errorf("synth %s: non-positive population", p.Name)
	}
	if p.MeanRunLen <= 0 || p.MeanLoopIter <= 0 || p.MeanStreamLen <= 0 {
		return fmt.Errorf("synth %s: non-positive mean", p.Name)
	}
	if p.InstrMin <= 0 || p.InstrMax < p.InstrMin || p.InstrGrain <= 0 {
		return fmt.Errorf("synth %s: bad instruction size bounds", p.Name)
	}
	if p.PhaseLoci < 0 || p.PhaseLoci > p.HotLoci {
		return fmt.Errorf("synth %s: PhaseLoci %d out of [0,%d]", p.Name, p.PhaseLoci, p.HotLoci)
	}
	if p.PhaseScalars < 0 || p.PhaseScalars > p.HotScalars {
		return fmt.Errorf("synth %s: PhaseScalars %d out of [0,%d]", p.Name, p.PhaseScalars, p.HotScalars)
	}
	if (p.PhaseLoci > 0 || p.PhaseScalars > 0) && p.MeanPhaseLen <= 0 {
		return fmt.Errorf("synth %s: phases enabled but MeanPhaseLen %d not positive", p.Name, p.MeanPhaseLen)
	}
	if p.AccessSize != 1 && p.AccessSize != 2 && p.AccessSize != 4 && p.AccessSize != 8 {
		return fmt.Errorf("synth %s: bad access size %d", p.Name, p.AccessSize)
	}
	for _, f := range []float64{p.PLoop, p.PNearJump, p.WriteFrac,
		p.FracStack, p.FracScalar, p.FracStream} {
		if f < 0 || f > 1 {
			return fmt.Errorf("synth %s: probability %g out of [0,1]", p.Name, f)
		}
	}
	if s := p.FracStack + p.FracScalar + p.FracStream; s > 1 {
		return fmt.Errorf("synth %s: data fractions sum to %g > 1", p.Name, s)
	}
	return nil
}

// Region bases keep code, data and stack disjoint.  The 16-bit profiles
// choose region sizes that fit beneath these bases scaled down; bases
// are chosen so all profiles fit a 32-bit space.
const (
	codeBase  = 0x0000_1000
	dataBase  = 0x0010_0000
	stackBase = 0x0080_0000
)

// Generator produces the reference stream for a profile.  It implements
// trace.Source and never returns an error other than io.EOF (when
// constructed with a limit).
type Generator struct {
	p Profile

	// Independent streams per model component so components do not
	// perturb each other's sequences.
	ctlRand   *rng.Stream // control flow
	dataRand  *rng.Stream // data reference mix
	lenRand   *rng.Stream // run/loop/stream lengths
	locusZipf *rng.Zipf
	scalarZ   *rng.Zipf

	// Per-profile constants, derived once: geometric samplers for run,
	// loop, phase and stack-offset lengths, the stream restart
	// probability, and the divide-free instruction-length remainder.
	runGeom, loopGeom, phaseGeom, backGeom rng.Geom
	pStreamEnd                             float64
	lenMod                                 modulus

	loci    []addr.Addr // hot code locations
	scalars []addr.Addr // hot variable addresses

	// Instruction engine state.
	pc       addr.Addr
	runLeft  int // instructions left in the current sequential run
	loopHead addr.Addr
	loopLen  int // instructions per loop-body walk
	loopLeft int // iterations remaining

	// Phase state: currently active subsets of loci and scalars, and
	// the countdown (in instructions) to the next phase change.
	activeLoci    []addr.Addr
	activeScalars []addr.Addr
	phaseLeft     int

	// Data engine state.
	stackTop int // byte offset within the stack region
	streams  []addr.Addr

	// Interleaving: owedData accrues DataRefsPerInstr per instruction,
	// and each whole unit of it is one data reference owed before the
	// next ifetch.  dataLeft counts them; each is generated when it is
	// emitted, still before the next instruction step, so every stream
	// draws in the order an eager queue would.
	owedData float64
	dataLeft int

	refsLeft int // references still to emit before EOF
}

// NewGenerator builds a generator for p.  limit bounds the number of
// references emitted (<= 0 for unlimited; the paper uses 1,000,000).
func NewGenerator(p Profile, limit int) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(p.Seed)
	g := &Generator{
		p:        p,
		ctlRand:  root.Split(),
		dataRand: root.Split(),
		lenRand:  root.Split(),
		refsLeft: limit,
	}
	if limit <= 0 {
		g.refsLeft = math.MaxInt
	}
	layout := root.Split()
	g.loci = make([]addr.Addr, p.HotLoci)
	for i := range g.loci {
		g.loci[i] = codeBase + addr.AlignDown(addr.Addr(layout.Intn(p.CodeSize)), uint64(p.InstrGrain))
	}
	g.scalars = make([]addr.Addr, p.HotScalars)
	for i := range g.scalars {
		g.scalars[i] = dataBase + addr.AlignDown(addr.Addr(layout.Intn(p.DataSize)), uint64(p.AccessSize))
	}
	g.streams = make([]addr.Addr, p.Streams)
	for i := range g.streams {
		g.streams[i] = dataBase + addr.AlignDown(addr.Addr(layout.Intn(p.DataSize)), uint64(p.AccessSize))
	}
	g.locusZipf = rng.NewZipf(g.ctlRand.Split(), p.HotLoci, p.CodeZipf)
	g.scalarZ = rng.NewZipf(g.dataRand.Split(), p.HotScalars, p.ScalarZipf)
	g.runGeom = rng.NewGeom(g.lenRand, 1/float64(p.MeanRunLen))
	g.loopGeom = rng.NewGeom(g.lenRand, 1/float64(p.MeanLoopIter))
	if p.PhaseLoci > 0 || p.PhaseScalars > 0 {
		g.phaseGeom = rng.NewGeom(g.lenRand, 1/float64(p.MeanPhaseLen))
	}
	g.backGeom = rng.NewGeom(g.dataRand, 0.5)
	g.pStreamEnd = 1 / float64(p.MeanStreamLen)
	g.lenMod = newModulus(uint64((p.InstrMax-p.InstrMin)/p.InstrGrain) + 1)
	g.stackTop = p.StackSize / 2
	g.newPhase()
	g.newRun()
	return g, nil
}

// newPhase re-draws the active locus and scalar subsets.  Subset members
// are drawn by Zipf rank from the global populations, so hot loci recur
// across phases (inter-phase temporal locality) while each phase's
// footprint stays bounded.
func (g *Generator) newPhase() {
	p := &g.p
	if p.PhaseLoci == 0 && p.PhaseScalars == 0 {
		g.activeLoci = g.loci
		g.activeScalars = g.scalars
		g.phaseLeft = 1 << 62 // effectively never
		return
	}
	pick := func(pop []addr.Addr, z *rng.Zipf, n int) []addr.Addr {
		if n == 0 {
			return pop
		}
		out := make([]addr.Addr, n)
		for i := range out {
			out[i] = pop[z.Next()]
		}
		return out
	}
	g.activeLoci = pick(g.loci, g.locusZipf, p.PhaseLoci)
	g.activeScalars = pick(g.scalars, g.scalarZ, p.PhaseScalars)
	g.phaseLeft = 1 + g.phaseGeom.Next()
}

// instrLen returns the deterministic instruction length at a, so loop
// re-walks refetch identical addresses: static code has static layout.
func (g *Generator) instrLen(a addr.Addr) int {
	if g.lenMod.d == 1 {
		return g.p.InstrMin
	}
	// SplitMix-style avalanche of the address and seed.
	h := uint64(a) ^ g.p.Seed*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return g.p.InstrMin + int(g.lenMod.mod(h))*g.p.InstrGrain
}

// modulus computes h % d without a divide (Barrett reduction): with
// m = floor((2^64-1)/d), the quotient estimate hi64(h*m) is exact or
// one short for every 64-bit h, so one conditional subtraction fixes
// the remainder.
type modulus struct {
	d, m uint64
}

func newModulus(d uint64) modulus {
	return modulus{d: d, m: math.MaxUint64 / d}
}

// mod returns h % x.d.
func (x modulus) mod(h uint64) uint64 {
	q, _ := bits.Mul64(h, x.m)
	r := h - q*x.d
	if r >= x.d {
		r -= x.d
	}
	return r
}

// newRun chooses the next control-flow target and run shape.
func (g *Generator) newRun() {
	p := &g.p
	g.runLeft = 1 + g.runGeom.Next()
	var target addr.Addr
	if g.pc != 0 && g.ctlRand.Bool(p.PNearJump) {
		// Short forward skip: the forward bias of real code.
		skip := (1 + g.ctlRand.Intn(8)) * p.InstrMax
		target = g.pc + addr.Addr(skip)
		if target >= codeBase+addr.Addr(p.CodeSize) {
			target = g.pickLocus()
		}
	} else {
		target = g.pickLocus()
	}
	target = addr.AlignDown(target, uint64(p.InstrGrain))
	g.pc = target
	if g.ctlRand.Bool(p.PLoop) {
		g.loopHead = target
		g.loopLen = g.runLeft
		g.loopLeft = g.loopGeom.Next()
	} else {
		g.loopLeft = 0
	}
}

// pickLocus selects a control-transfer target: uniformly from the
// active phase subset when phases are enabled, otherwise by Zipf rank
// from the whole population.
func (g *Generator) pickLocus() addr.Addr {
	if g.p.PhaseLoci > 0 {
		return g.activeLoci[g.ctlRand.Intn(len(g.activeLoci))]
	}
	return g.loci[g.locusZipf.Next()]
}

// pickScalar is the data-side analogue of pickLocus.
func (g *Generator) pickScalar() addr.Addr {
	if g.p.PhaseScalars > 0 {
		return g.activeScalars[g.dataRand.Intn(len(g.activeScalars))]
	}
	return g.scalars[g.scalarZ.Next()]
}

// stepInstr emits the next instruction fetch and advances control flow.
func (g *Generator) stepInstr() trace.Ref {
	p := &g.p
	g.phaseLeft--
	if g.phaseLeft <= 0 {
		g.newPhase()
	}
	ilen := g.instrLen(g.pc)
	ref := trace.Ref{Addr: g.pc, Kind: trace.IFetch, Size: uint8(ilen)}
	g.pc += addr.Addr(ilen)
	if g.pc >= codeBase+addr.Addr(p.CodeSize) {
		g.pc = codeBase
	}
	g.runLeft--
	if g.runLeft == 0 {
		if g.loopLeft > 0 {
			g.loopLeft--
			g.pc = g.loopHead
			g.runLeft = g.loopLen
		} else {
			g.newRun()
		}
	}
	return ref
}

// stepData emits one data reference from the mixture model.
func (g *Generator) stepData() trace.Ref {
	p := &g.p
	var a addr.Addr
	u := g.dataRand.Float64()
	switch {
	case u < p.FracStack:
		// Reflected random walk of the stack top; references cluster
		// just below it (locals of the current frame).
		step := (g.dataRand.Intn(3) - 1) * p.AccessSize
		g.stackTop += step
		if g.stackTop < 0 {
			g.stackTop = 0
		}
		if g.stackTop >= p.StackSize {
			g.stackTop = p.StackSize - p.AccessSize
		}
		back := g.backGeom.Next() * p.AccessSize
		off := g.stackTop - back
		if off < 0 {
			off = 0
		}
		a = stackBase + addr.Addr(off)
	case u < p.FracStack+p.FracScalar:
		a = g.pickScalar()
	case u < p.FracStack+p.FracScalar+p.FracStream:
		i := g.dataRand.Intn(len(g.streams))
		a = g.streams[i]
		g.streams[i] += addr.Addr(p.AccessSize)
		end := addr.Addr(dataBase + p.DataSize)
		restart := g.streams[i] >= end ||
			g.dataRand.Bool(g.pStreamEnd)
		if restart {
			g.streams[i] = dataBase + addr.AlignDown(
				addr.Addr(g.dataRand.Intn(p.DataSize)), uint64(p.AccessSize))
		}
	default:
		a = dataBase + addr.AlignDown(
			addr.Addr(g.dataRand.Intn(p.DataSize)), uint64(p.AccessSize))
	}
	kind := trace.Read
	if g.dataRand.Bool(p.WriteFrac) {
		kind = trace.Write
	}
	return trace.Ref{Addr: a, Kind: kind, Size: uint8(p.AccessSize)}
}

// Next implements trace.Source.
func (g *Generator) Next() (trace.Ref, error) {
	r, ok := g.next()
	if !ok {
		return trace.Ref{}, io.EOF
	}
	return r, nil
}

// next is Next for in-package callers: ok is false once limit
// references have been emitted.
func (g *Generator) next() (ref trace.Ref, ok bool) {
	if g.refsLeft == 0 {
		return trace.Ref{}, false
	}
	g.refsLeft--
	if g.dataLeft > 0 {
		g.dataLeft--
		return g.stepData(), true
	}
	ref = g.stepInstr()
	g.owedData += g.p.DataRefsPerInstr
	for g.owedData >= 1 {
		g.owedData--
		g.dataLeft++
	}
	return ref, true
}

// WordSource is a profile's reference stream split to word accesses on
// a data path of one width: the exact input a cache simulation replays.
// It serves the stream two ways over one carried state, so the views
// may be mixed: ReadPacked writes words straight into trace.PackRefs
// form, the sweep executor's chunk format; Next returns them one at a
// time as a trace.Source.  Either way the words are those of
// trace.NewSplitter over the Generator, in the same order.
type WordSource struct {
	g         *Generator
	wordShift uint
	// The reference being split: its next word access and how many of
	// its words are still to come.  A reference may straddle two
	// ReadPacked calls, or a ReadPacked call and Next.
	cur  trace.Ref
	left int
}

// NewWordSource returns the word source for profile p on a data path
// of wordSize bytes (a power of two).  limit bounds the generated
// references before splitting (<= 0 for unlimited), so the words match
// Generate(p, limit) expanded through trace.SplitAll.
func NewWordSource(p Profile, limit, wordSize int) (*WordSource, error) {
	if wordSize <= 0 || !addr.IsPow2(uint64(wordSize)) {
		return nil, fmt.Errorf("synth %s: word size %d is not a positive power of two", p.Name, wordSize)
	}
	g, err := NewGenerator(p, limit)
	if err != nil {
		return nil, err
	}
	return &WordSource{g: g, wordShift: addr.Log2(uint64(wordSize))}, nil
}

// ReadPacked fills dst with the next words in trace.PackRefs form at
// the source's word size, returning how many it stored.  It stops
// short only at end of stream, where the error is io.EOF -- possibly
// alongside n > 0 -- exactly as trace.ReadChunk does.
func (w *WordSource) ReadPacked(dst []uint64) (int, error) {
	shift := w.wordShift
	word, left := trace.PackRef(w.cur, shift), w.left
	for n := range dst {
		if left == 0 {
			r, ok := w.g.next()
			if !ok {
				w.left = 0
				return n, io.EOF
			}
			first, words := trace.SplitRef(r, shift)
			word, left = trace.PackRef(first, shift), words
		}
		dst[n] = word
		word += 4
		left--
	}
	w.cur, w.left = trace.UnpackRef(word, shift), left
	return len(dst), nil
}

// Next implements trace.Source: the next word access, every one
// word-sized and word-aligned.
func (w *WordSource) Next() (trace.Ref, error) {
	if w.left == 0 {
		r, ok := w.g.next()
		if !ok {
			return trace.Ref{}, io.EOF
		}
		w.cur, w.left = trace.SplitRef(r, w.wordShift)
	}
	out := w.cur
	w.cur.Addr += 1 << w.wordShift
	w.left--
	return out, nil
}

// Generate materialises n references of the profile into memory,
// a convenience for the sweep harness (which replays one trace through
// many cache configurations).
func Generate(p Profile, n int) ([]trace.Ref, error) {
	g, err := NewGenerator(p, n)
	if err != nil {
		return nil, err
	}
	refs := make([]trace.Ref, 0, n)
	for {
		r, err := g.Next()
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
	}
}
