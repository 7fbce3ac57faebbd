// Package cmp runs a multi-core simulation: N cores executing the same
// server workload (distinct request interleavings), sharing the LLC and any
// virtualized predictor metadata, in the round-robin trace-interleaved
// style of the paper's methodology (§4.1).
//
// The cores' instruction streams come from trace.Sources, so the same
// timing model replays live synthetic executors, captured trace files, or
// recorded in-memory streams interchangeably.
//
// # Two phase kinds
//
// A detailed phase (engine.phaseExact) steps the cores serially in the
// canonical round-robin order — exactly the serial interleaving. What is
// provably independent of timing and of other cores runs ahead of it on
// one stage goroutine per active core: record decode (trace.Source
// streams take no feedback from the timing model) and the stream half of
// a detailed step (Core.StreamPredict: the branch predictors, and BTB
// designs that declare btb.Design.StreamOnly). The weave runs the timing
// half (Core.StepPredicted). The stages stop at exactly the weave's phase-end
// record, so every phase boundary sees the serial state, and results are
// bit-identical to the serial simulator for any worker count and any
// GOMAXPROCS.
//
// Functional fast-forward (System.FastForward, engine.phaseFF) is exact
// too: FastStep reads no state another core writes, nor the LLC and
// history its writes go to (PhantomBTB's shared group store aside, which
// keeps the serial schedule). So each core steps chunk after chunk on a
// goroutine of its own, logging its LLC and history writes by round, and
// the phase goroutine replays chunk k of every core in (round, core)
// order — the serial interleaving itself — while the cores step on, at
// most ffLead chunks ahead of it. No barrier stops the cores between
// chunks.
package cmp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"confluence/internal/frontend"
	"confluence/internal/mem"
	"confluence/internal/phantom"
	"confluence/internal/trace"
)

// System is an assembled CMP: per-core frontends fed by per-core record
// sources over a shared memory hierarchy.
type System struct {
	Cores   []*frontend.Core
	Sources []trace.Source
	Hier    *mem.Hierarchy

	intraWorkers int
	eng          *engine // built lazily at first Run; persists across phases
}

// New wires a system; len(cores) must equal len(srcs).
func New(cores []*frontend.Core, srcs []trace.Source, hier *mem.Hierarchy) (*System, error) {
	if len(cores) == 0 || len(cores) != len(srcs) {
		return nil, fmt.Errorf("cmp: %d cores vs %d sources", len(cores), len(srcs))
	}
	return &System{Cores: cores, Sources: srcs, Hier: hier}, nil
}

// SetIntra configures in-run parallelism: workers bounds how many cores
// step fast-forward chunks at once inside this one simulation; zero
// means min(GOMAXPROCS, cores). Every core steps on a goroutine of its
// own, and the replay of their logged writes runs on the calling
// goroutine beside them, outside the bound. Detailed phases do not use
// the count: they always run one stage goroutine per active core beside
// the calling goroutine. Every setting is bit-identical to the serial
// simulator.
// SetIntra must be called before the first Run; once the engine exists
// the configuration is frozen and later calls are ignored. Cells set it
// in experiments.Simulate, to their caller's share of the machine.
func (s *System) SetIntra(workers int) {
	if s.eng != nil {
		return
	}
	s.intraWorkers = workers
}

// Run simulates warmup+measure instructions per core (round-robin, one
// basic block per core per turn). Warmup populates caches, predictors, and
// shared history with statistics frozen; measurement counters are reset at
// the boundary. It returns the aggregate measured stats. A source failure
// (a corrupt or exhausted finite trace) aborts the run.
func (s *System) Run(warmup, measure uint64) (*frontend.Stats, error) {
	return s.RunCtx(context.Background(), warmup, measure)
}

// RunCtx is Run honoring mid-run cancellation, so a cancelled simulation
// returns ctx.Err() within milliseconds instead of running to its
// instruction target. A detailed phase polls ctx at every stage batch (at
// most a few thousand basic blocks per core). Fast-forward polls it after
// replaying each chunk of ffChunkRounds rounds: a cancellation that lands
// while a core steps chunk k is seen by the end of chunk k's replay, and
// by then no core has stepped past chunk k+ffLead. The poll reads no
// simulated state and feeds nothing back into the timing model, so a run
// that completes is bit-identical whether or not a context is attached.
//
// After any phase returns an error — a source failure or a cancellation —
// the System is not reusable: cores may have stepped different numbers
// of records, and a detailed phase may have dropped records its stages
// had decoded. Close it and assemble a new one.
func (s *System) RunCtx(ctx context.Context, warmup, measure uint64) (*frontend.Stats, error) {
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	if err := s.phase(ctx, warmup); err != nil {
		return nil, err
	}
	for _, c := range s.Cores {
		c.ResetStats()
	}
	if s.Hier != nil {
		s.Hier.ResetStats()
	}
	if err := s.phase(ctx, measure); err != nil {
		return nil, err
	}

	var agg frontend.Stats
	for _, c := range s.Cores {
		agg.Add(c.Stats())
	}
	return &agg, nil
}

// phase advances every core by approximately n instructions through the
// engine.
func (s *System) phase(ctx context.Context, n uint64) error {
	if n == 0 {
		return nil
	}
	return s.eng.phase(ctx, n)
}

// decodeBatch is the per-core record decode-ahead depth: one NextBatch call
// per decodeBatch basic blocks amortizes the Source interface dispatch (and
// the file reader's per-record bounds checks) on every path, fast-forward
// or a detailed phase's stage goroutine. Sources take no feedback from the timing model, so
// decode-ahead is invisible to the simulation.
const decodeBatch = 64

// coreQ is one core's decoded-record queue. buf[head:head+n] are the
// records decoded but not yet stepped (nor, in a detailed phase, handed
// to the weave); they persist across phases (warmup → measure, detailed
// → fast-forward), so decode-ahead never perturbs where a phase boundary
// falls in the stream. During a detailed phase the core's stage owns the
// queue. err is a deferred source error: a finite source's io.EOF (or a
// corruption) is surfaced only if the core still needs records, matching
// the serial semantics where a source failure beyond the phase target is
// never observed.
type coreQ struct {
	buf     []trace.Record
	head, n int
	err     error
}

// coreProg is one core's phase-progress record. instr counts instructions
// advanced across all phases (detailed and fast-forward) since engine
// creation; phase targets are expressed against it, decoupled from
// Stats().Instructions because fast-forward moves no stats counters. recs
// counts stream records consumed (stepped or skipped) — the stream
// position a warm-up snapshot records so a restored run can reposition its
// sources (see SkipRecords).
type coreProg struct {
	instr  uint64
	recs   uint64
	target uint64
}

// engine is the phase scheduler for one System (see the package comment
// for the model).
type engine struct {
	s *System

	// stages are the per-core pipes carrying detailed phases' stream half
	// from its stage goroutines to the weave (see phaseExact), and cur the
	// weave's read positions in them; both are built at the first detailed
	// phase. wg joins the stages every phase.
	stages []*stage
	cur    []stageCursor
	wg     sync.WaitGroup

	// ff switches phases to the functional fast-forward path: cores
	// advance through Core.FastStep instead of Core.StepPredicted, each on
	// a goroutine of its own, at most ffWorkers stepping at once (ffSem's
	// slots). Their shared-state writes are logged in chunks and replayed
	// in canonical (round, core) order, so fast-forward is bit-identical
	// to the serial round-robin schedule for any worker count. ffSerial
	// (a BTB reading cross-core shared state) steps on that serial
	// schedule instead. ffPipes carry the logs and ffCur holds the ones
	// being replayed; both are built at the first fast-forward phase. See
	// phaseFF.
	ff        bool
	ffWorkers int
	ffSerial  bool
	ffPipes   []*ffPipe
	ffCur     []*ffChunk
	ffSem     chan struct{}

	q      []coreQ
	active []int // compacted list of cores still below target

	// prog tracks per-core phase progress. instr and target are kept
	// together with recs in one small struct so the per-record
	// bookkeeping in the step loops is a single indexed access on one
	// cache line, not three.
	prog []coreProg
}

// newEngine builds the engine. An unset worker count lets fast-forward
// use the machine: nothing it computes depends on the worker count.
func newEngine(s *System) *engine {
	ffw := s.intraWorkers
	if ffw < 1 {
		ffw = min(runtime.GOMAXPROCS(0), len(s.Cores))
	}
	e := &engine{s: s, ffWorkers: ffw}
	for _, c := range s.Cores {
		// PhantomBTB's FastStep reads the group store other cores write,
		// so its systems fast-forward on the serial schedule.
		if _, ok := c.BTB().(*phantom.PhantomBTB); ok {
			e.ffSerial = true
		}
	}
	e.q = make([]coreQ, len(s.Cores))
	for i := range e.q {
		e.q[i].buf = make([]trace.Record, decodeBatch)
	}
	e.active = make([]int, 0, len(s.Cores))
	e.prog = make([]coreProg, len(s.Cores))
	return e
}

// phase advances every core by approximately n instructions.
func (e *engine) phase(ctx context.Context, n uint64) error {
	e.active = e.active[:0]
	for i := range e.s.Cores {
		e.prog[i].target = e.prog[i].instr + n
		e.active = append(e.active, i)
	}
	if e.ff {
		return e.phaseFF(ctx)
	}
	return e.phaseExact(ctx)
}

// refill tops the queue up from src. One NextBatch call suffices: the
// batch only comes back short on an error, which is deferred in q.err
// until (unless) the core actually runs dry.
func (q *coreQ) refill(src trace.Source) {
	if q.err != nil || q.n == len(q.buf) {
		return
	}
	if q.head > 0 {
		copy(q.buf, q.buf[q.head:q.head+q.n])
		q.head = 0
	}
	k, err := src.NextBatch(q.buf[q.n:])
	q.n += k
	q.err = err
}

// dryErr returns the error to surface for a core that is below target with
// an empty queue.
func (e *engine) dryErr(c int) error { return e.q[c].dryErr(c) }

// dryErr returns the error to surface when core c, whose queue this is,
// is below target with the queue empty.
func (q *coreQ) dryErr(c int) error {
	err := q.err
	if err == nil {
		err = io.ErrUnexpectedEOF // cannot happen: refill either fills or errors
	}
	return fmt.Errorf("cmp: core %d source: %w", c, err)
}

// phaseExact is the detailed engine, with the two halves of a detailed
// step pipelined: each active core's stream stage (runStage, one goroutine
// per core) decodes the core's records and runs Core.StreamPredict on
// every record the phase will step, while the weave runs
// Core.StepPredicted on them serially, in canonical round-robin order —
// the serial simulator's interleaving. The stream half touches only
// core-private, stream-determined state, and each stage stops at exactly
// the record where the weave stops (the same instructions-below-target
// rule), so when the phase returns every core's state is the serial
// simulator's, bit for bit, for any scheduling of the goroutines.
func (e *engine) phaseExact(ctx context.Context) error {
	stop := e.startStages()
	defer e.joinStages(stop)
	// Slice headers are loop-invariant, but the compiler cannot prove
	// that across the step calls — hoisting them into locals keeps the
	// detailed inner loop tight.
	cores, prog, cur := e.s.Cores, e.prog, e.cur
	for len(e.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A pass runs until the first active core's batch is used up:
		// every round steps each remaining core exactly once, in core
		// order, exactly as the serial loop interleaves them. Fetching in
		// core order, the first core found dry is the lowest core dry at
		// this round — the serial simulator's error.
		rounds := -1
		for _, c := range e.active {
			k := &cur[c]
			if k.b == nil || k.i == k.b.n {
				if err := e.nextBatch(c); err != nil {
					return err
				}
			}
			if r := k.b.n - k.i; r < rounds || rounds < 0 {
				rounds = r
			}
		}
		for r := 0; r < rounds && len(e.active) > 0; r++ {
			w := 0
			for _, c := range e.active {
				k := &cur[c]
				rec := &k.b.recs[k.i]
				cores[c].StepPredicted(rec, &k.b.outs[k.i])
				k.i++
				pg := &prog[c]
				pg.instr += uint64(rec.N)
				pg.recs++
				if pg.instr < pg.target {
					e.active[w] = c
					w++
				}
			}
			e.active = e.active[:w]
		}
	}
	return nil
}

// Close releases sources holding external resources (trace files) and
// the engine's pipeline stages and fast-forward logs; the synthetic
// executors' Close-less sources are unaffected.
func (s *System) Close() error {
	if s.eng != nil {
		s.eng.release()
	}
	var first error
	for _, src := range s.Sources {
		if c, ok := src.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// PerCoreStats returns each core's measured stats (diagnostics). The
// pointers alias the live cores; use PerCoreSnapshot for results that
// outlive the system.
func (s *System) PerCoreStats() []*frontend.Stats {
	out := make([]*frontend.Stats, len(s.Cores))
	for i, c := range s.Cores {
		out[i] = c.Stats()
	}
	return out
}

// PerCoreSnapshot returns a copy of each core's measured stats, detached
// from the live cores (safe to retain after Close). The aggregate Run
// returns is the in-order sum of exactly these snapshots.
func (s *System) PerCoreSnapshot() []*frontend.Stats {
	out := make([]*frontend.Stats, len(s.Cores))
	for i, c := range s.Cores {
		st := *c.Stats()
		out[i] = &st
	}
	return out
}
