package cmp

import (
	"sync"

	"confluence/internal/frontend"
	"confluence/internal/trace"
)

// stageBatchRecs is the records per stage-to-weave handoff. A handoff
// costs two channel operations and, when the peer is parked, a goroutine
// wake-up of several microseconds on the weave's CPU, so batches are long
// enough to make that vanish against the stepping (at 256 records it
// still cost a tenth of the gain).
const stageBatchRecs = 1024

// stageBatches is the batches in flight per core: one the weave steps,
// one the stage fills, one spare so neither waits on the other's jitter.
const stageBatches = 3

// stageBatch is the next records of one core's stream, in order, each
// with the Outcome of Core.StreamPredict — the stream half of a detailed step,
// already run — for the weave to step the timing half of.
type stageBatch struct {
	recs [stageBatchRecs]trace.Record
	outs [stageBatchRecs]frontend.Outcome
	n    int
	// err, when set, ended the batch short: the source ran dry below the
	// core's target. It is the error the serial simulator returns for
	// this core at the round after the batch's last record.
	err error
}

// stage is one core's pipeline plumbing: its batches circulate between
// free (owned by the stream stage) and full (owned by the weave). Both
// channels hold every batch, so no send ever blocks. Between phases all
// batches rest in free, so every detailed phase of the system reuses
// them, and then later systems (see stagePool).
type stage struct {
	full, free chan *stageBatch
}

// stagePool recycles stages across systems. A grid assembles a system
// per cell, and a stage holds ~240 KB of batches; allocating them per
// system raised exact_grid's peak resident memory from 111 MB to 136 MB
// on a 2-vCPU host.
var stagePool = sync.Pool{New: func() any {
	st := &stage{
		full: make(chan *stageBatch, stageBatches),
		free: make(chan *stageBatch, stageBatches),
	}
	for i := 0; i < stageBatches; i++ {
		st.free <- new(stageBatch)
	}
	return st
}}

// release returns the engine's stages and fast-forward pipes to their
// pools when the system closes.
func (e *engine) release() {
	for _, st := range e.stages {
		stagePool.Put(st)
	}
	for _, p := range e.ffPipes {
		ffPipePool.Put(p)
	}
	e.stages, e.cur = nil, nil
	e.ffPipes, e.ffCur = nil, nil
}

// stageCursor is the weave's read position in a core's current batch.
type stageCursor struct {
	b *stageBatch
	i int
}

// startStages starts a stream stage per active core for a detailed
// phase; closing the returned channel stops them.
func (e *engine) startStages() chan struct{} {
	if e.stages == nil {
		e.stages = make([]*stage, len(e.s.Cores))
		for c := range e.stages {
			e.stages[c] = stagePool.Get().(*stage)
		}
		e.cur = make([]stageCursor, len(e.s.Cores))
	}
	stop := make(chan struct{})
	for _, c := range e.active {
		e.wg.Add(1)
		//confluence:allow baregoroutine the stream stage runs only core c's stream half, on core-private state, in stream order and up to exactly the weave's stopping record; the weave joins it before the phase returns, so results are independent of goroutine scheduling
		go e.runStage(c, e.prog[c].instr, e.prog[c].target, stop)
	}
	return stop
}

// nextBatch hands core c's used-up batch back to its stage and takes the
// next one, returning the source error that ends the core's stream
// instead when there is no next record.
func (e *engine) nextBatch(c int) error {
	k, st := &e.cur[c], e.stages[c]
	if k.b != nil {
		if k.b.err != nil {
			return k.b.err
		}
		st.free <- k.b
	}
	// The stage cannot be blocked: the weave holds none of its batches now.
	k.b, k.i = <-st.full, 0
	if k.b.n == 0 {
		return k.b.err
	}
	return nil
}

// joinStages stops and waits for a detailed phase's stages, then returns
// every batch to its free list. A phase that ran to its targets consumed
// every batch its stages filled; one that failed or was cancelled may
// leave some filled, and their records are dropped — a System is not
// reusable after a phase returns an error.
func (e *engine) joinStages(stop chan struct{}) {
	close(stop)
	e.wg.Wait()
	for c, st := range e.stages {
		if k := &e.cur[c]; k.b != nil {
			st.free <- k.b
			*k = stageCursor{}
		}
		for len(st.full) > 0 {
			st.free <- <-st.full
		}
	}
}

// runStage is core c's stream stage for one detailed phase: starting
// with pred instructions advanced, it runs Core.StreamPredict on each
// record while pred is below target — the weave's own rule for stepping
// a record, so the two stop at the same record — and passes the records
// on in batches. Records it decodes beyond that stay in the core's decode
// queue, unpredicted, for whatever phase comes next. The queue is worked
// on in a local and written back once, so concurrent stages share no hot
// cache line.
func (e *engine) runStage(c int, pred, target uint64, stop <-chan struct{}) {
	defer e.wg.Done()
	core, src, st := e.s.Cores[c], e.s.Sources[c], e.stages[c]
	q := e.q[c]
	defer func() { e.q[c] = q }()
	for pred < target {
		select {
		case <-stop:
			return
		default:
		}
		var b *stageBatch
		select {
		case b = <-st.free:
		case <-stop:
			return
		}
		n := 0
		for ; n < stageBatchRecs && pred < target; n++ {
			if q.n == 0 {
				if q.refill(src); q.n == 0 {
					break
				}
			}
			rec := &b.recs[n]
			*rec = q.buf[q.head]
			q.head++
			q.n--
			b.outs[n] = core.StreamPredict(rec)
			pred += uint64(rec.N)
		}
		b.n, b.err = n, nil
		if n < stageBatchRecs && pred < target {
			b.err = q.dryErr(c)
		}
		st.full <- b
		if b.err != nil {
			return
		}
	}
}
