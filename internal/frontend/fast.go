package frontend

import (
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

// ffOp is one shared-state write FastStep deferred into a log: an LLC
// warm touch of block address key, or (hist) a SHIFT history record of
// block number key, issued during the given round.
type ffOp struct {
	key   uint64
	round uint32
	hist  bool
}

// FFLog is a deferred-write log for concurrent fast-forward: the
// shared-state writes — LLC warm touches and history records, the only
// cross-core effects of the functional path — that FastStep issued while
// the log was attached to a core (DeferFF), each tagged with its round,
// the FastStep call since attachment that issued it. A log is reused:
// attaching empties it, keeping its buffer.
type FFLog struct {
	rounds uint32 // FastStep calls since attached
	next   int    // replay cursor into ops
	ops    []ffOp
}

// Rounds returns the rounds logged since the log was attached.
func (l *FFLog) Rounds() uint32 { return l.rounds }

// NextRound returns the round of the next logged write ReplayFF has yet
// to apply, and false once every logged write has been replayed.
func (l *FFLog) NextRound() (uint32, bool) {
	if l.next < len(l.ops) {
		return l.ops[l.next].round, true
	}
	return 0, false
}

// DeferFF attaches l, emptied, as the log FastStep appends its
// shared-state writes to instead of applying them; nil detaches the log,
// and FastStep applies them directly again (the default). Logging lets
// several cores fast-forward concurrently: replaying every core's log in
// (round, core) order with ReplayFF reproduces the serial round-robin
// interleaving of those writes exactly, and nothing FastStep reads
// depends on them, so the deferral is invisible to the stepping core and
// the replay may run while the core steps on into another log.
func (c *Core) DeferFF(l *FFLog) {
	if l != nil {
		l.ops = l.ops[:0]
		l.rounds, l.next = 0, 0
	}
	c.ffLog = l
}

// ReplayFF applies, in issue order, the writes l logged in the given
// round while attached to c — a no-op for rounds it did not log. Rounds
// must be replayed in increasing order. It touches only the shared LLC
// and history and l, never c's own state, so it may run while c steps
// into another log.
func (c *Core) ReplayFF(l *FFLog, round uint32) {
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

// FastStep advances one executed basic block through the functional
// fast-forward path: architectural and history-relevant state evolves —
// branch predictor tables, RAS, ITC, BTB contents, L1-I and LLC
// contents, and the SHIFT stream history — while timing (stall and
// penalty accounting, prefetcher run-ahead, MSHR tracking) is skipped
// entirely. No Stats counter moves; the engine tracks fast-forwarded
// progress itself. Under DeferFF the LLC and history writes are logged
// instead of applied.
//
// Predictor and BTB training is the detailed step's own: the same StreamPredict, and
// the same probeBTB for designs the stream half cannot probe; only the
// penalty accounting is skipped. The rest mirrors StepPredicted stage for
// stage (materialize ready fills, branch, per-block access, cycle
// advance) so the two walk identical state-update sequences; when its
// order changes, change this in lockstep. The cycle clock still advances
// by the issue + backend component of StepPredicted's charge — structures coupled
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

	// Find each fetched block's L1-I slot once, materializing fills that
	// completed before this block's fetch (entries left in flight by a
	// preceding detailed window).
	var s0, s1 int
	var r0, r1 bool
	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			if s1, r1 = c.l1i.Find(blockKey(b)); !r1 {
				s1, r1 = c.materialize(now, b, false)
			}
			if b == first {
				s0, r0 = s1, r1
			}
		}
	}

	if br := rec.Br; br.Kind.IsBranch() {
		o := c.StreamPredict(rec)
		if hit, _ := c.probeBTB(now, rec, &o, last, s1, r1); br.Taken {
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
			slot, ok := s0, r0 // as in StepPredicted
			if b != first {
				slot, ok = s1, r1
				if b != last {
					slot, ok = c.l1i.Find(key)
				}
			}
			hit := ok && c.l1i.Holds(slot, key)
			c.l1i.Access(slot, hit)
			if !hit {
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
					if l := c.ffLog; l != nil {
						l.ops = append(l.ops, ffOp{key: uint64(b | c.asBase), round: l.rounds})
					} else {
						c.cfg.Hier.Warm(b | c.asBase)
					}
					c.fillQuiet(now, b, true)
				}
			}
			if c.cfg.Recorder != nil {
				if !c.hasLast || key != c.lastBlock {
					if l := c.ffLog; l != nil {
						l.ops = append(l.ops, ffOp{key: key | c.keyTag, round: l.rounds, hist: true})
					} else {
						c.cfg.Recorder.Record(key | c.keyTag)
					}
					c.lastBlock = key
					c.hasLast = true
				}
			}
		}
	}
	if l := c.ffLog; l != nil {
		l.rounds++
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
