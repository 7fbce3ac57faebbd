package cmp

import (
	"context"
	"sync"

	"confluence/internal/frontend"
	"confluence/internal/trace"
)

// ffChunkRounds is the fast-forward chunk depth: the rounds a core steps
// into one write log before handing it to the replay. Deep enough that
// the handoff and the replay's per-chunk bookkeeping vanish against the
// stepping (each round is one basic block per core), shallow enough that
// a chunk is milliseconds — the unit of cancellation latency — and that
// the logs stay cache-sized.
const ffChunkRounds = 4096

// ffLead is how many chunks a core may step past the chunk the replay is
// on: each core owns ffLead+1 write logs, and a log comes back to it only
// once its chunk has been replayed. One chunk of lead lets every core
// step on while the replay works, and bounds how far a core runs past a
// cancellation.
const ffLead = 1

// ffChunk is one chunk of a core's fast-forward: the log of its
// shared-state writes, and how the chunk ended.
type ffChunk struct {
	log  frontend.FFLog
	done bool  // the core reached its phase target in this chunk
	err  error // the core's source ran dry below target after log.Rounds() rounds
	// FastStep rewrites the log header every round; the padding keeps
	// another core's chunk off its cache lines.
	_ [64]byte
}

// ffPipe is one core's fast-forward plumbing: its chunks circulate
// between free (owned by the core's stepping goroutine) and full (owned
// by the replay). Both channels hold every chunk, so no send ever blocks.
// Between phases all chunks rest in free, so every fast-forward phase of
// the system reuses their logs, and then later systems (see ffPipePool).
type ffPipe struct {
	full, free chan *ffChunk
}

// ffPipePool recycles pipes across systems. A sampled sweep assembles a
// system per cell; regrowing every core's logs in every cell would add
// garbage per cell, enough to shift where GC cycles land against the
// sweep's far larger allocations (program generation) and raise its peak
// resident memory.
var ffPipePool = sync.Pool{New: func() any {
	p := &ffPipe{
		full: make(chan *ffChunk, ffLead+1),
		free: make(chan *ffChunk, ffLead+1),
	}
	for i := 0; i <= ffLead; i++ {
		p.free <- new(ffChunk)
	}
	return p
}}

// phaseFF is the fast-forward engine. Each active core's goroutine
// (ffRun) steps its chunks back to back — up to ffChunkRounds rounds
// each, one FastStep per round, stopping early only at its target or
// when its source runs dry — logging its writes to shared state, LLC
// warm touches and history records, with their round. FastStep reads
// nothing another core writes, nor anything the replay writes. So the
// phase goroutine replays chunk k of every core in (round, core) order,
// exactly how the serial round-robin loop would have interleaved those
// writes, while the cores step on into later chunks, ffLead at most:
// the result is bit-identical for any worker count and any scheduling.
// The worker count bounds how many cores step at once.
//
// The replay polls ctx after each chunk, before handing its logs back,
// so a cancellation that lands while some core steps chunk k returns
// with no core past chunk k+ffLead.
//
// A BTB reading cross-core shared state (ffSerial) breaks the first
// premise, so such systems step on the phase goroutine, one round of
// every core at a time — the serial schedule itself.
func (e *engine) phaseFF(ctx context.Context) error {
	if e.ffSerial {
		for len(e.active) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.ffSerialChunk(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := e.startFF()
	defer e.joinFF(stop)
	cores, pipes, cur := e.s.Cores, e.ffPipes, e.ffCur
	for len(e.active) > 0 {
		// A core that stepped fewer rounds than the chunk below its
		// target ran dry; the serial loop fails at the first such round,
		// on the lowest such core.
		rounds, dry := 0, -1
		for _, c := range e.active {
			b := <-pipes[c].full
			cur[c] = b
			n := int(b.log.Rounds())
			rounds = max(rounds, n)
			if b.err != nil && (dry < 0 || n < int(cur[dry].log.Rounds())) {
				dry = c
			}
		}
		if dry >= 0 {
			return cur[dry].err
		}
		for r := 0; r < rounds; r++ {
			for _, c := range e.active {
				cores[c].ReplayFF(&cur[c].log, uint32(r))
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		w := 0
		for _, c := range e.active {
			b := cur[c]
			cur[c] = nil
			if !b.done {
				e.active[w] = c
				w++
			}
			pipes[c].free <- b
		}
		e.active = e.active[:w]
	}
	return nil
}

// startFF starts a stepping goroutine per active core for a
// fast-forward phase; closing the returned channel stops them.
func (e *engine) startFF() chan struct{} {
	if e.ffPipes == nil {
		e.ffPipes = make([]*ffPipe, len(e.s.Cores))
		for c := range e.ffPipes {
			e.ffPipes[c] = ffPipePool.Get().(*ffPipe)
		}
		e.ffCur = make([]*ffChunk, len(e.s.Cores))
		e.ffSem = make(chan struct{}, e.ffWorkers)
	}
	stop := make(chan struct{})
	for _, c := range e.active {
		e.wg.Add(1)
		//confluence:allow baregoroutine core c's fast-forward stepper touches only core-private state and its own logs; the phase goroutine replays the logs in canonical (round, core) order, so results are independent of goroutine scheduling
		go e.ffRun(c, stop)
	}
	return stop
}

// joinFF stops and waits for a fast-forward phase's goroutines, then
// returns every chunk to its free list. A phase that ran to its targets
// replayed every chunk its cores stepped; one that failed or was
// cancelled may leave some unreplayed, and their writes are dropped — a
// System is not reusable after a phase returns an error.
func (e *engine) joinFF(stop chan struct{}) {
	close(stop)
	e.wg.Wait()
	for c, p := range e.ffPipes {
		if b := e.ffCur[c]; b != nil {
			p.free <- b
			e.ffCur[c] = nil
		}
		for len(p.full) > 0 {
			p.free <- <-p.full
		}
	}
}

// ffRun is core c's stepping goroutine for one fast-forward phase: it
// steps chunk after chunk into logs from its free list, each while
// holding one of the engine's worker slots, and hands them to the replay
// until the core reaches its target or its source runs dry. The queue
// and progress are worked on in locals and written back once, so
// stepping goroutines share no hot cache lines.
func (e *engine) ffRun(c int, stop <-chan struct{}) {
	defer e.wg.Done()
	core, src, p := e.s.Cores[c], e.s.Sources[c], e.ffPipes[c]
	q, pg := e.q[c], e.prog[c]
	defer func() {
		e.q[c], e.prog[c] = q, pg
		core.DeferFF(nil)
	}()
	for {
		var b *ffChunk
		select {
		case b = <-p.free:
		case <-stop:
			return
		}
		select {
		case e.ffSem <- struct{}{}:
		case <-stop:
			p.free <- b
			return
		}
		core.DeferFF(&b.log)
		n := 0
		for n < ffChunkRounds && ffStep(core, src, &q, &pg) {
			n++
		}
		b.done, b.err = pg.instr >= pg.target, nil
		if !b.done && n < ffChunkRounds {
			b.err = q.dryErr(c)
		}
		// Hand the chunk over before the slot: Go runs the goroutine
		// woken last next on this thread, so the next core's stepper
		// takes over this CPU while the replay moves to an idle one,
		// rather than the other way round (at one worker, releasing the
		// slot first cost a tenth of the throughput).
		p.full <- b
		<-e.ffSem
		if b.done || b.err != nil {
			return
		}
	}
}

// ffSerialChunk is a fast-forward chunk on the serial schedule, with
// shared writes applied directly: up to ffChunkRounds rounds, every
// active core in core order, so the first core found dry is the serial
// simulator's error.
func (e *engine) ffSerialChunk() error {
	cores, srcs := e.s.Cores, e.s.Sources
	for r := 0; r < ffChunkRounds && len(e.active) > 0; r++ {
		w := 0
		for _, c := range e.active {
			pg := &e.prog[c]
			if !ffStep(cores[c], srcs[c], &e.q[c], pg) {
				return e.dryErr(c) // active cores are below target
			}
			if pg.instr < pg.target {
				e.active[w] = c
				w++
			}
		}
		e.active = e.active[:w]
	}
	return nil
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
