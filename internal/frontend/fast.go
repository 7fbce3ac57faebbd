package frontend

import (
	"sync"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

// FFCounts tallies the probe outcomes of the functional fast-forward
// path. FastStep drives the L1-I and the BTB with the exact lookup
// sequence detailed simulation would issue, so these counts are the
// full-coverage complement to the measurement windows' Stats: for a core
// with no prefetcher wired, the miss events on the two paths are
// identical event for event (contents evolve purely from the demand
// stream), making the combined window+gap miss counts exact rather than
// sampled. They live outside Stats — fast-forward moves no measurement
// counter — and accumulate monotonically; consumers take deltas.
type FFCounts struct {
	Instructions    uint64 `json:"instructions"`
	L1IAccesses     uint64 `json:"l1i_accesses"`
	L1IMisses       uint64 `json:"l1i_misses"`
	BTBTakenLookups uint64 `json:"btb_taken_lookups"`
	BTBMisses       uint64 `json:"btb_misses"`
}

// Add accumulates b into a.
func (a *FFCounts) Add(b *FFCounts) {
	a.Instructions += b.Instructions
	a.L1IAccesses += b.L1IAccesses
	a.L1IMisses += b.L1IMisses
	a.BTBTakenLookups += b.BTBTakenLookups
	a.BTBMisses += b.BTBMisses
}

// Sub subtracts b from a (delta of two monotone snapshots).
func (a *FFCounts) Sub(b *FFCounts) {
	a.Instructions -= b.Instructions
	a.L1IAccesses -= b.L1IAccesses
	a.L1IMisses -= b.L1IMisses
	a.BTBTakenLookups -= b.BTBTakenLookups
	a.BTBMisses -= b.BTBMisses
}

// FFCounts returns the core's cumulative fast-forward probe tallies.
func (c *Core) FFCounts() FFCounts { return c.ffCt }

// ffOp is one shared-state write FastStep deferred into the core's log:
// an LLC warm touch of block address key, or (hist) a SHIFT history
// record of block number key, issued during the given round.
type ffOp struct {
	key   uint64
	round uint32
	hist  bool
}

// ffLog is a core's deferred-write log for concurrent fast-forward. Each
// FastStep is one round; its shared writes are tagged with it.
type ffLog struct {
	on    bool
	round uint32 // rounds stepped since the last reset
	next  int    // replay cursor into ops
	ops   []ffOp
}

// DeferFF switches FastStep between applying its shared-state writes —
// LLC warm touches and history records, the only cross-core effects of
// the functional path — directly (false, the default) and appending them
// to a private per-core log (true). Logging lets several cores
// fast-forward concurrently: the engine counts one round per FastStep
// and, at a barrier, replays every core's log in (round, core) order
// with ReplayFF, which reproduces the serial round-robin interleaving of
// those writes exactly. Nothing FastStep reads depends on them, so the
// deferral is invisible to the stepping core. Either switch discards an
// unreplayed log; switching off also hands the log's buffer back for
// the next core to reuse (see ffBufs), so call DeferFF(false) when done
// with a logging core.
func (c *Core) DeferFF(on bool) {
	c.ResetFF()
	c.ffLog.on = on
	ffBufs.Lock()
	defer ffBufs.Unlock()
	switch l := &c.ffLog; {
	case on && l.ops == nil && len(ffBufs.free) > 0:
		n := len(ffBufs.free) - 1
		l.ops, ffBufs.free = ffBufs.free[n], ffBufs.free[:n]
	case !on && l.ops != nil:
		ffBufs.free = append(ffBufs.free, l.ops)
		l.ops = nil
	}
}

// ffBufs recycles log buffers across cores. A sampled sweep assembles a
// system per cell; regrowing every core's log in every cell would add
// garbage per cell, enough to shift where GC cycles land against the
// sweep's far larger allocations (program generation) and raise its peak
// resident memory. The list holds at most one buffer per core ever live
// at once, each sized by the largest chunk it logged.
var ffBufs struct {
	sync.Mutex
	free [][]ffOp
}

// ReplayFF applies, in issue order, the logged writes of the given round
// (rounds count FastStep calls since the last ResetFF) — a no-op for
// rounds the core did not step. Rounds must be replayed in increasing
// order.
func (c *Core) ReplayFF(round uint32) {
	l := &c.ffLog
	i := l.next
	for ; i < len(l.ops) && l.ops[i].round == round; i++ {
		if op := l.ops[i]; op.hist {
			c.cfg.Recorder.Record(op.key)
		} else {
			c.cfg.Hier.Warm(isa.Addr(op.key))
		}
	}
	l.next = i
}

// FFRounds returns the rounds stepped since the last ResetFF.
func (c *Core) FFRounds() uint32 { return c.ffLog.round }

// ResetFF empties the log and restarts the round count; call it once
// every logged round has been replayed.
func (c *Core) ResetFF() {
	l := &c.ffLog
	l.ops = l.ops[:0]
	l.round, l.next = 0, 0
}

// FastStep advances one executed basic block through the functional
// fast-forward path: architectural and history-relevant state evolves —
// branch predictor tables, RAS, ITC, BTB contents, L1-I and LLC
// contents, and the SHIFT stream history — while timing (stall and
// penalty accounting, prefetcher run-ahead, MSHR tracking) is skipped
// entirely. No Stats counter moves; the engine tracks fast-forwarded
// progress itself. Under DeferFF the LLC and history writes are logged
// instead of applied.
//
// Predictor and BTB training is Step's own: the same StreamPredict, and
// the same probeBTB for designs the stream half cannot probe; only the
// penalty accounting is skipped. The rest mirrors StepPredicted stage for
// stage (materialize ready fills, branch, per-block access, cycle
// advance) so the two walk identical state-update sequences; when its
// order changes, change this in lockstep. The cycle clock still advances
// by the issue + backend component of Step's charge — structures coupled
// to time (PhantomBTB's in-flight group fills) must keep maturing at a
// rate comparable to detailed simulation, and the backend component is
// pure workload calibration, so the clock stays design-independent
// enough for snapshots to be shared across design points.
func (c *Core) FastStep(rec *trace.Record) {
	now := c.cycle
	c.ffCt.Instructions += uint64(rec.N)

	first := isa.BlockOf(rec.Start)
	last := first
	if rec.N > 1 {
		last = isa.BlockOf(rec.Start + isa.Addr((rec.N-1)*isa.InstrBytes))
	}

	// Materialize fills that completed before this block's fetch (entries
	// left in flight by a preceding detailed window).
	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			if c.inflight.TakeIfReady(blockKey(b), now) {
				c.fillQuiet(now, b, false)
			}
		}
	}

	if br := rec.Br; br.Kind.IsBranch() {
		o := c.StreamPredict(rec)
		if hit, _ := c.probeBTB(now, rec, &o); br.Taken {
			c.ffCt.BTBTakenLookups++
			if !hit {
				c.ffCt.BTBMisses++
			}
		}
	}

	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			key := blockKey(b)
			c.ffCt.L1IAccesses++
			if !c.l1i.Lookup(key) {
				if ready, ok := c.inflight.Take(key); ok {
					// Same effective-miss rule as access(): a fill still at
					// least half an LLC latency away failed to hide the miss.
					if ready-now >= c.halfLLCLat {
						c.ffCt.L1IMisses++
					}
					c.fillQuiet(now, b, false)
				} else {
					c.ffCt.L1IMisses++
					// Functional LLC touch: contents and replacement state
					// evolve as under a demand access, no latency charged.
					if l := &c.ffLog; l.on {
						l.ops = append(l.ops, ffOp{key: uint64(b | c.asBase), round: l.round})
					} else {
						c.cfg.Hier.Warm(b | c.asBase)
					}
					c.fillQuiet(now, b, true)
				}
			}
			if c.cfg.Recorder != nil {
				if !c.hasLast || key != c.lastBlock {
					if l := &c.ffLog; l.on {
						l.ops = append(l.ops, ffOp{key: key | c.keyTag, round: l.round, hist: true})
					} else {
						c.cfg.Recorder.Record(key | c.keyTag)
					}
					c.lastBlock = key
					c.hasLast = true
				}
			}
		}
	}
	if l := &c.ffLog; l.on {
		l.round++
	}

	var issue float64
	if uint(rec.N) < uint(len(c.issueTab)) {
		issue = c.issueTab[rec.N]
	} else {
		issue = float64(rec.N) / c.cfg.IssueWidth
	}
	if issue < 1 {
		issue = 1
	}
	c.cycle += issue + float64(rec.N)*c.cfg.BackendCPI
}
