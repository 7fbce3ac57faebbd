// Package cmp runs a multi-core simulation: N cores executing the same
// server workload (distinct request interleavings), sharing the LLC and any
// virtualized predictor metadata, in the round-robin trace-interleaved
// style of the paper's methodology (§4.1).
//
// The cores' instruction streams come from trace.Sources, so the same
// timing model replays live synthetic executors, captured trace files, or
// recorded in-memory streams interchangeably.
//
// # Bound-weave epochs
//
// Stepping is organized in epochs with two phases, in the style of ZSim's
// bound-weave parallelism. In the bound phase, each core independently
// advances against its private structures — L1-I, BTB, BPU, prefetcher
// window — with every shared-structure operation (LLC lookups/fills, SHIFT
// history records, PhantomBTB group-store traffic) answered from the
// epoch-start snapshot and buffered into a per-core ordered log. At the
// epoch barrier (the weave), the logs are applied in canonical core order,
// so results are deterministic for any worker count by construction.
//
// K (SetIntra's epochBlocks) is the epoch depth in basic blocks per core:
//
//   - K=1 is the exact mode and the default: the weave executes the steps
//     serially in the canonical round-robin order — exactly the serial
//     interleaving. What is provably independent of timing and of other
//     cores runs ahead of it on one stage goroutine per active core (see
//     phaseExact): record decode (trace.Source streams take no feedback
//     from the timing model) and the stream half of Core.Step
//     (Core.StreamPredict: the branch predictors, and BTB designs that
//     declare btb.Design.StreamOnly). The weave runs the timing half
//     (Core.StepPredicted). The stages stop at exactly the weave's
//     phase-end record, so every phase boundary sees the serial state,
//     and results are bit-identical to the serial simulator for any
//     worker count and any GOMAXPROCS.
//   - K>1 is a documented approximation: cores advance up to K blocks
//     against shared state frozen at the epoch boundary, so cross-core
//     timing feedback (another core's LLC fill, a generator's history
//     records) arrives one epoch late. Within an epoch the apply order is
//     canonical, so the mode is still bit-deterministic across worker
//     counts — just not bit-identical to K=1.
//
// Functional fast-forward (System.FastForward) applies the same idea
// exactly, for any K: FastStep reads no state another core writes
// (PhantomBTB's shared store aside, which keeps the serial schedule), so
// cores step whole chunks concurrently, logging their LLC and history
// writes by round, and the chunk barrier replays the logs in (round,
// core) order — the serial interleaving itself (see engine.phaseFF).
package cmp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"confluence/internal/frontend"
	"confluence/internal/mem"
	"confluence/internal/shift"
	"confluence/internal/trace"
)

// System is an assembled CMP: per-core frontends fed by per-core record
// sources over a shared memory hierarchy.
type System struct {
	Cores   []*frontend.Core
	Sources []trace.Source
	Hier    *mem.Hierarchy

	intraWorkers int
	epochBlocks  int
	eng          *engine // built lazily at first Run; persists across phases
}

// New wires a system; len(cores) must equal len(srcs).
func New(cores []*frontend.Core, srcs []trace.Source, hier *mem.Hierarchy) (*System, error) {
	if len(cores) == 0 || len(cores) != len(srcs) {
		return nil, fmt.Errorf("cmp: %d cores vs %d sources", len(cores), len(srcs))
	}
	return &System{Cores: cores, Sources: srcs, Hier: hier}, nil
}

// SetIntra configures in-run parallelism: workers bounds the goroutines
// stepping cores in K>1 bound phases and fast-forward chunks inside this
// one simulation, epochBlocks is K, the per-core epoch depth (see the
// package comment); zero K means 1. Zero workers means one bound-phase
// worker and min(GOMAXPROCS, cores) fast-forward workers. K=1 detailed
// phases do not use the count: they always run one stage goroutine per
// active core beside the calling goroutine. Every setting at K=1 is
// bit-identical to the serial simulator. SetIntra must be called before the first Run; once
// the epoch engine exists the configuration is frozen and later calls
// are ignored.
func (s *System) SetIntra(workers, epochBlocks int) {
	if s.eng != nil {
		return
	}
	s.intraWorkers = workers
	s.epochBlocks = epochBlocks
}

// Run simulates warmup+measure instructions per core (round-robin, one
// basic block per core per turn). Warmup populates caches, predictors, and
// shared history with statistics frozen; measurement counters are reset at
// the boundary. It returns the aggregate measured stats. A source failure
// (a corrupt or exhausted finite trace) aborts the run.
func (s *System) Run(warmup, measure uint64) (*frontend.Stats, error) {
	return s.RunCtx(context.Background(), warmup, measure)
}

// RunCtx is Run honoring mid-run cancellation: the epoch engine polls ctx
// at every epoch barrier (at most a few thousand basic blocks per core),
// so a cancelled simulation returns ctx.Err() promptly instead of running
// to its instruction target. The poll reads no simulated state and feeds
// nothing back into the timing model, so a run that completes is
// bit-identical whether or not a context is attached.
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
// epoch engine.
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

// weaveDesign is implemented by BTB designs backed by cross-core shared
// state (PhantomBTB's group store): SetDeferred(true) switches them to
// frozen reads plus logged writes for bound phases, ApplyLog replays a
// core's log at the weave barrier. Their FastStep reads that shared
// state too, so fast-forward steps them on the serial schedule.
type weaveDesign interface {
	SetDeferred(bool)
	ApplyLog()
}

// ffChunkRounds is the fast-forward chunk depth: the rounds every core
// steps between barriers. Deep enough that barrier and replay overhead
// vanish against the stepping (each round is one basic block per core),
// shallow enough that a chunk is milliseconds — the latency of a
// cancellation — and that the per-core write logs stay cache-sized.
const ffChunkRounds = 4096

// engine is the bound-weave epoch scheduler for one System (see the
// package comment for the model).
type engine struct {
	s       *System
	workers int // bound-phase (K>1) workers
	k       int // epoch depth in blocks; 1 = exact mode

	// stages are the per-core pipes carrying K=1 detailed phases' stream
	// half from its stage goroutines to the weave (see phaseExact), and
	// cur the weave's read positions in them; both are built at the first
	// detailed phase. wg joins the stages every phase.
	stages []*stage
	cur    []stageCursor
	wg     sync.WaitGroup

	// ff switches phases to the functional fast-forward path: cores
	// advance through Core.FastStep instead of Core.Step, concurrently on
	// ffWorkers workers in chunks (see phaseFF). The cores' shared-state
	// writes are logged and replayed in canonical (round, core) order at
	// each chunk barrier, so fast-forward is bit-identical to the serial
	// round-robin schedule for any worker count and any K. ffSerial (a
	// BTB reading cross-core shared state) steps chunks on that serial
	// schedule instead. See System.FastForward.
	ff        bool
	ffWorkers int
	ffSerial  bool

	q      []coreQ
	active []int // compacted list of cores still below target

	// prog tracks per-core phase progress. instr and target are kept
	// together with recs in one small struct so the per-record
	// bookkeeping in the step loops is a single indexed access on one
	// cache line, not three.
	prog []coreProg

	// K>1 deferral plumbing, indexed by core (nil entries where unused).
	ports  []*mem.BoundPort
	recs   []*shift.Deferred
	weaves []weaveDesign
}

// newEngine builds the engine and, for K>1, rewires every core's shared
// touch points (memory port, history recorder, shared-store BTB) to their
// probe-and-log forms.
func newEngine(s *System) *engine {
	w, k := s.intraWorkers, s.epochBlocks
	if k < 1 {
		k = 1
	}
	// An unset worker count keeps K>1 bound phases on one worker but
	// lets fast-forward use the machine: nothing it computes depends on
	// the worker count.
	ffw := w
	if w < 1 {
		w = 1
		ffw = min(runtime.GOMAXPROCS(0), len(s.Cores))
	}
	e := &engine{s: s, workers: w, k: k, ffWorkers: ffw}
	for _, c := range s.Cores {
		if _, ok := c.BTB().(weaveDesign); ok {
			e.ffSerial = true
		}
	}
	qcap := decodeBatch
	if k > qcap {
		qcap = k
	}
	e.q = make([]coreQ, len(s.Cores))
	for i := range e.q {
		e.q[i].buf = make([]trace.Record, qcap)
	}
	e.active = make([]int, 0, len(s.Cores))
	e.prog = make([]coreProg, len(s.Cores))
	if k > 1 {
		e.ports = make([]*mem.BoundPort, len(s.Cores))
		e.recs = make([]*shift.Deferred, len(s.Cores))
		e.weaves = make([]weaveDesign, len(s.Cores))
		for i, c := range s.Cores {
			if s.Hier != nil {
				e.ports[i] = mem.NewBoundPort(s.Hier)
				c.SetMemPort(e.ports[i])
			}
			if r := c.Recorder(); r != nil {
				d := &shift.Deferred{Target: r}
				c.SetRecorder(d)
				e.recs[i] = d
			}
			if wd, ok := c.BTB().(weaveDesign); ok {
				wd.SetDeferred(true)
				e.weaves[i] = wd
			}
		}
	}
	return e
}

// phase advances every core by approximately n instructions.
func (e *engine) phase(ctx context.Context, n uint64) error {
	e.active = e.active[:0]
	for i := range e.s.Cores {
		e.prog[i].target = e.prog[i].instr + n
		e.active = append(e.active, i)
	}
	switch {
	case e.ff:
		return e.phaseFF(ctx)
	case e.k > 1:
		return e.phaseBound(ctx)
	}
	return e.phaseExact(ctx)
}

// refill tops core c's queue up from its source.
func (e *engine) refill(c int) { e.q[c].refill(e.s.Sources[c]) }

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

// phaseExact is the K=1 engine, with the two halves of Core.Step
// pipelined: each active core's stream stage (runStage, one goroutine
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
		// An epoch runs until the first active core's batch is used up:
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

// phaseFF is the fast-forward engine. Each chunk, every active core
// steps up to ffChunkRounds rounds — one FastStep per round, stopping
// early only at its target or when its source runs dry — concurrently on
// the pool. FastStep reads nothing another core writes, and its writes to
// shared state, LLC warm touches and history records, are logged per core
// with their round. At the barrier the logs are replayed in (round, core)
// order, which is exactly how the serial round-robin loop would have
// interleaved them: the result is bit-identical for any worker count.
//
// A BTB reading cross-core shared state (weaveDesign) breaks the first
// premise, so such systems step each chunk on one worker, one round of
// every core at a time — the serial schedule itself.
func (e *engine) phaseFF(ctx context.Context) error {
	cores := e.s.Cores
	for _, c := range cores {
		c.DeferFF(true)
	}
	var p *pool
	if !e.ffSerial {
		p = e.startPool(e.ffWorkers, e.ffChunk)
		defer p.stop()
	}
	for len(e.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.ffSerial {
			e.ffSerialChunk()
		} else {
			e.barrier(p, e.ffChunk)
		}
		// A core below target that stepped fewer rounds than the chunk
		// ran dry; the serial loop fails at the first such round, on the
		// lowest such core.
		rounds, dry, dryAt := 0, -1, 0
		for _, c := range e.active {
			n := int(cores[c].FFRounds())
			rounds = max(rounds, n)
			if pg := &e.prog[c]; pg.instr < pg.target && n < ffChunkRounds && (dry < 0 || n < dryAt) {
				dry, dryAt = c, n
			}
		}
		if dry >= 0 {
			return e.dryErr(dry)
		}
		for r := 0; r < rounds; r++ {
			for _, c := range e.active {
				cores[c].ReplayFF(uint32(r))
			}
		}
		w := 0
		for _, c := range e.active {
			if pg := &e.prog[c]; pg.instr < pg.target {
				e.active[w] = c
				w++
			}
		}
		e.active = e.active[:w]
	}
	return nil
}

// ffChunk is one core's share of a fast-forward chunk. It runs
// concurrently across cores and touches only core-private state and this
// core's queue, source, and log; the queue and progress are worked on in
// locals and written back once, so workers share no hot cache lines.
func (e *engine) ffChunk(c int) {
	core, src := e.s.Cores[c], e.s.Sources[c]
	q, pg := e.q[c], e.prog[c]
	core.ResetFF()
	for n := 0; n < ffChunkRounds && ffStep(core, src, &q, &pg); n++ {
	}
	e.q[c], e.prog[c] = q, pg
}

// ffSerialChunk is a whole fast-forward chunk on the serial schedule:
// round by round, every active core in core order.
func (e *engine) ffSerialChunk() {
	cores, srcs := e.s.Cores, e.s.Sources
	for _, c := range e.active {
		cores[c].ResetFF()
	}
	for r, live := 0, true; r < ffChunkRounds && live; r++ {
		live = false
		for _, c := range e.active {
			if ffStep(cores[c], srcs[c], &e.q[c], &e.prog[c]) {
				live = true
			}
		}
	}
}

// ffStep advances one core by one fast-forward round, refilling its
// decode queue first if drained. It steps nothing and reports false once
// the core is at its target or its source has run dry.
func ffStep(core *frontend.Core, src trace.Source, q *coreQ, pg *coreProg) bool {
	if pg.instr >= pg.target {
		return false
	}
	if q.n == 0 {
		if q.refill(src); q.n == 0 {
			return false
		}
	}
	rec := &q.buf[q.head]
	core.FastStep(rec)
	q.head++
	q.n--
	pg.instr += uint64(rec.N)
	pg.recs++
	return true
}

// phaseBound is the K>1 engine: the bound phase steps each active core up
// to K blocks against frozen shared state (logging shared ops), the weave
// applies the logs in canonical core order and compacts the active list.
func (e *engine) phaseBound(ctx context.Context) error {
	p := e.startPool(e.workers, e.boundStep)
	defer p.stop()
	for len(e.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.barrier(p, e.boundStep)
		var firstDry = -1
		w := 0
		for _, c := range e.active {
			// Apply in canonical order even for cores retiring this epoch:
			// their final ops are part of the epoch's shared-state evolution.
			if p := e.ports[c]; p != nil {
				p.Apply()
			}
			if d := e.recs[c]; d != nil {
				d.Apply()
			}
			if wd := e.weaves[c]; wd != nil {
				wd.ApplyLog()
			}
			if e.prog[c].instr >= e.prog[c].target {
				continue
			}
			if e.q[c].n == 0 && e.q[c].err != nil && firstDry < 0 {
				firstDry = c
			}
			e.active[w] = c
			w++
		}
		e.active = e.active[:w]
		if firstDry >= 0 {
			return e.dryErr(firstDry)
		}
	}
	return nil
}

// boundStep is one core's bound phase: top up the decode queue, then step
// up to K blocks. All shared reads answer from the epoch-start snapshot;
// all shared writes land in this core's logs. Runs concurrently across
// cores — it touches only core-private state, this core's queue/logs, and
// frozen shared structures.
func (e *engine) boundStep(c int) {
	e.refill(c)
	q := &e.q[c]
	core := e.s.Cores[c]
	pg := &e.prog[c]
	for i := 0; i < e.k; i++ {
		if q.n == 0 || pg.instr >= pg.target {
			return
		}
		rec := &q.buf[q.head]
		core.Step(rec)
		pg.instr += uint64(rec.N)
		pg.recs++
		q.head++
		q.n--
	}
}

// pool runs per-core jobs (bound-phase steps, fast-forward chunks) on
// persistent worker goroutines for the duration of one phase
// (workers idle between barriers instead of respawning — epochs can be as
// small as K blocks per core). Each core is handed to exactly one worker
// per epoch, and the barrier orders every job before the weave reads its
// results, so jobs need no locking.
type pool struct {
	jobs chan int
	done chan struct{}
}

// startPool launches min(w, cores) workers running job, or returns nil
// when that is one (callers then run jobs inline).
func (e *engine) startPool(w int, job func(core int)) *pool {
	n := len(e.s.Cores)
	if w > n {
		w = n
	}
	if w <= 1 {
		return nil
	}
	p := &pool{jobs: make(chan int, n), done: make(chan struct{}, n)}
	for i := 0; i < w; i++ {
		//confluence:allow baregoroutine the epoch engine's per-core jobs: per-core op logs are applied at the barrier in canonical order, so results are independent of goroutine scheduling
		go func() {
			for c := range p.jobs {
				job(c)
				p.done <- struct{}{}
			}
		}()
	}
	return p
}

// barrier runs one epoch's jobs for the given cores and waits for all of
// them; inline on the calling goroutine when the pool is nil.
func (e *engine) barrier(p *pool, job func(core int)) {
	if p == nil {
		for _, c := range e.active {
			job(c)
		}
		return
	}
	for _, c := range e.active {
		p.jobs <- c
	}
	for range e.active {
		<-p.done
	}
}

// stop terminates the pool's workers; safe on a nil pool.
func (p *pool) stop() {
	if p != nil {
		close(p.jobs)
	}
}

// Close releases sources holding external resources (trace files), the
// cores' fast-forward log buffers and the engine's pipeline stages; the
// synthetic executors' Close-less sources are unaffected.
func (s *System) Close() error {
	for _, c := range s.Cores {
		c.DeferFF(false)
	}
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
