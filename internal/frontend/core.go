// Package frontend is the per-core timing model: it consumes a core's
// retire-order basic-block stream and charges cycles for issue, backend
// data stalls, BTB bubbles, misfetches, mispredict resolutions, and exposed
// L1-I miss latency, while driving the configured BTB design and
// instruction prefetcher (DESIGN.md §5 documents the model and its
// simplifications).
package frontend

import (
	"confluence/internal/bpu"
	"confluence/internal/btb"
	"confluence/internal/cache"
	"confluence/internal/isa"
	"confluence/internal/mem"
	"confluence/internal/prefetch"
	"confluence/internal/program"
	"confluence/internal/trace"
)

// HistoryRecorder receives the L1-I block access stream (consecutive
// duplicates already collapsed); SHIFT's shared history implements it on
// the generator core.
type HistoryRecorder interface {
	Record(blockNumber uint64)
}

// Config assembles one core's frontend.
type Config struct {
	CoreID int

	// ASID is the core's address-space slot under workload consolidation
	// (Config.Mix): keys entering structures shared across cores — the LLC
	// and the SHIFT history — are tagged with isa.ASIDBase(ASID) so distinct
	// programs compete on capacity instead of aliasing at identical virtual
	// addresses. Zero (every homogeneous run) is the identity.
	ASID int

	// Pipeline parameters (defaults per the paper's Table 1 core).
	IssueWidth      float64 // 3-way
	MisfetchPenalty float64 // BTB-miss redirect at decode: 4 cycles
	ResolvePenalty  float64 // execute-time redirect: ~14 cycles (15-stage)
	// PredecodePenalty is added to demand-fill latency when the frontend
	// must scan a block before insertion (Confluence, §3.2).
	PredecodePenalty float64

	// L1-I geometry (paper: 32KB, 4-way, 64B blocks).
	L1ISets, L1IWays int

	// Direction/target predictors (paper: 16K-entry hybrid, 64-entry RAS,
	// 1K-entry ITC).
	PredictorEntries int
	RASEntries       int
	ITCEntries       int

	// Idealizations (the paper's "Ideal" frontend).
	PerfectL1I bool
	PerfectBTB bool

	// Workload timing calibration.
	BackendCPI float64
	Exposure   float64

	// Wiring.
	BTB        btb.Design          // nil only with PerfectBTB
	Prefetcher prefetch.Prefetcher // nil means none
	Hier       *mem.Hierarchy      // shared; nil only with PerfectL1I
	Prog       *program.Program    // for block predecode on fills
	Recorder   HistoryRecorder     // non-nil on SHIFT's generator core
}

// DefaultConfig returns the paper's core parameters with the wiring left
// empty.
func DefaultConfig() Config {
	return Config{
		IssueWidth:       3,
		MisfetchPenalty:  4,
		ResolvePenalty:   14,
		L1ISets:          128, // 32KB / 64B / 4 ways
		L1IWays:          4,
		PredictorEntries: 16 << 10,
		RASEntries:       64,
		ITCEntries:       1 << 10,
		BackendCPI:       1.0,
		Exposure:         0.42,
	}
}

// Core is one core's frontend state.
type Core struct {
	cfg Config

	// The stream half's state (StreamPredict): only read here, and kept
	// off the cache lines of the fields the timing half writes on every
	// step, so the two halves running on different CPUs do not bounce a
	// line between them. streamBTB: the BTB is probed and trained in the
	// stream half — a StreamOnly design, or a perfect BTB.
	hybrid    *bpu.Hybrid
	ras       *bpu.RAS
	itc       *bpu.ITC
	streamBTB bool
	_         [64]byte

	l1i      *cache.Cache
	inflight *cache.InFlight

	cycle     float64
	st        Stats
	lastBlock uint64 // history dedup
	hasLast   bool
	steps     uint64 // for periodic in-flight table scrubbing

	// ffCt holds the fast-forward probe tallies (fast.go); not part of st,
	// and kept out of the hot cluster above — only FastStep touches it.
	ffCt FFCounts

	// Address-space tag forms (from cfg.ASID): asBase ORs into addresses
	// crossing into the shared LLC, keyTag into block keys recorded to the
	// shared history. Both are zero outside heterogeneous mixes.
	asBase isa.Addr
	keyTag uint64

	// halfLLCLat caches half the average LLC latency: an in-flight fill
	// with at least this much residual wait counts as an effective miss.
	halfLLCLat float64

	// reqs is the reusable prefetch-request scratch buffer threaded through
	// OnAccess/OnRegion (append-into-dst), so the per-instruction path
	// issues prefetches without allocating. Requests are consumed by
	// schedule before the next prefetcher call, so one buffer suffices.
	reqs []prefetch.Request

	// issueTab[n] = float64(n)/IssueWidth for small n, precomputed with the
	// same division so results are bit-identical — saves an fdiv per block
	// (basic blocks are short; larger n falls back to dividing).
	issueTab [64]float64

	// ffLog, when attached, receives FastStep's shared-state writes
	// instead of the LLC and the history (DeferFF). It sits last so
	// the detailed step's fields keep their layout.
	ffLog *FFLog
}

// NewCore builds a core from its config.
func NewCore(cfg Config) *Core {
	c := &Core{
		cfg:    cfg,
		hybrid: bpu.NewHybrid(cfg.PredictorEntries),
		ras:    bpu.NewRAS(cfg.RASEntries),
		itc:    bpu.NewITC(cfg.ITCEntries),
		reqs:   make([]prefetch.Request, 0, 32),
		asBase: isa.ASIDBase(cfg.ASID),
	}
	c.keyTag = uint64(c.asBase) >> isa.BlockShift
	c.streamBTB = cfg.PerfectBTB || (cfg.BTB != nil && cfg.BTB.StreamOnly())
	if !cfg.PerfectL1I {
		c.l1i = cache.New(cfg.L1ISets, cfg.L1IWays)
		c.inflight = cache.NewInFlight()
		c.halfLLCLat = 0.5 * cfg.Hier.AvgLLCLatency(cfg.CoreID)
	}
	for n := range c.issueTab {
		c.issueTab[n] = float64(n) / cfg.IssueWidth
	}
	return c
}

// Stats returns the counters accumulated since the last ResetStats.
func (c *Core) Stats() *Stats { return &c.st }

// ResetStats zeroes the measurement counters at the warmup boundary;
// architectural state (caches, predictors, history) is preserved.
func (c *Core) ResetStats() {
	c.st = Stats{}
	c.hybrid.ResetStats()
	if c.l1i != nil {
		c.l1i.ResetStats()
	}
}

// Cycle returns the core's absolute cycle clock.
func (c *Core) Cycle() float64 { return c.cycle }

// L1I exposes the instruction cache (AirBTB synchronization tests).
func (c *Core) L1I() *cache.Cache { return c.l1i }

// Prefetcher exposes the wired prefetcher (diagnostics).
func (c *Core) Prefetcher() prefetch.Prefetcher { return c.cfg.Prefetcher }

// BTB exposes the wired BTB design (diagnostics).
func (c *Core) BTB() btb.Design { return c.cfg.BTB }

// fillLatency returns the shared-hierarchy latency for a block access
// (demand or prefetch).
func (c *Core) fillLatency(b isa.Addr) int {
	lat, _ := c.cfg.Hier.AccessLatency(c.cfg.CoreID, b)
	return lat
}

func blockKey(b isa.Addr) uint64 { return uint64(b) >> isa.BlockShift }

// Outcome is the stream half's verdict on one basic block's terminating
// branch, produced by StreamPredict and consumed by StepPredicted.
type Outcome struct {
	bubble float64 // BTB fetch bubble, valid with outBTB
	flags  outFlags
}

type outFlags uint8

const (
	outBTB   outFlags = 1 << iota // the stream half probed the BTB; outHit and bubble are valid
	outHit                        // BTB hit
	outDirOK                      // conditional: direction predicted correctly
	outRASOK                      // return: RAS predicted the target
	outITCOK                      // indirect: ITC predicted the target
)

// StreamPredict is the stream half of a detailed step: everything determined by the
// record stream alone — hybrid direction prediction and training, RAS
// push/pop, ITC predict/update, and, when the BTB design is StreamOnly (or
// the BTB is perfect), the BTB lookup and resolve. It reads no clock, no
// L1-I, and no other core, and touches neither Stats nor anything
// StepPredicted touches, so the CMP engine may run it ahead of the timing
// half on another goroutine, as long as each core's records reach it in
// stream order and every phase boundary joins the two.
func (c *Core) StreamPredict(rec *trace.Record) Outcome {
	br := rec.Br
	if !br.Kind.IsBranch() {
		return Outcome{}
	}
	var o Outcome
	if c.streamBTB {
		res := btb.Result{Hit: true}
		if !c.cfg.PerfectBTB {
			res = c.cfg.BTB.Lookup(0, rec.Start, br.PC)
			c.cfg.BTB.Resolve(0, rec.Start, rec.N, br)
		}
		o.bubble, o.flags = res.Bubble, outBTB
		if res.Hit {
			o.flags |= outHit
		}
	}
	switch br.Kind {
	case isa.BrCond:
		if _, correct := c.hybrid.PredictAndUpdate(br.PC, br.Taken); correct {
			o.flags |= outDirOK
		}
	case isa.BrCall:
		c.ras.Push(br.PC + isa.InstrBytes)
	case isa.BrRet:
		if target, ok := c.ras.Pop(); ok && target == br.Target {
			o.flags |= outRASOK
		}
	case isa.BrIndirect, isa.BrIndCall:
		if pt, ok := c.itc.Predict(br.PC); ok && pt == br.Target {
			o.flags |= outITCOK
		}
		c.itc.Update(br.PC, br.Target)
		if br.Kind == isa.BrIndCall {
			c.ras.Push(br.PC + isa.InstrBytes)
		}
	}
	return o
}

// probeBTB returns the BTB's verdict on the block's terminating branch:
// from o when the stream half probed it, otherwise by probing and training
// the design now, in program order against the timing half's state.
func (c *Core) probeBTB(now float64, rec *trace.Record, o *Outcome) (hit bool, bubble float64) {
	if o.flags&outBTB != 0 {
		return o.flags&outHit != 0, o.bubble
	}
	res := c.cfg.BTB.Lookup(now, rec.Start, rec.Br.PC)
	c.cfg.BTB.Resolve(now, rec.Start, rec.N, rec.Br)
	return res.Hit, res.Bubble
}

// StepPredicted is the timing half of a detailed step: given the record's Outcome
// from StreamPredict, it materializes completed fills, probes a BTB the
// stream half could not, charges penalties, drives the prefetcher, the
// L1-I and the shared hierarchy, records history, and advances the clock
// and Stats.
func (c *Core) StepPredicted(rec *trace.Record, o *Outcome) {
	now := c.cycle
	st := &c.st
	st.Records++
	st.Instructions += uint64(rec.N)
	if rec.ReqBoundary {
		st.Requests++
	}

	first := isa.BlockOf(rec.Start)
	last := first
	if rec.N > 1 {
		last = isa.BlockOf(rec.Start + isa.Addr((rec.N-1)*isa.InstrBytes))
	}

	// Materialize fills that completed before this block's fetch so the
	// BTB lookup below sees state Confluence would have installed already.
	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			if c.inflight.TakeIfReady(blockKey(b), now) {
				st.PrefUseful++
				c.fill(now, b, false)
			}
		}
	}

	var penalty float64
	redirect := false

	if rec.Br.Kind.IsBranch() {
		penalty, redirect = c.settle(now, rec, o)
	}

	// BPU emits the fetch region; FDP banks its run-ahead from it.
	if pf := c.cfg.Prefetcher; pf != nil {
		c.reqs = pf.OnRegion(now, rec.Start, rec.N, c.reqs[:0])
		c.schedule(now, c.reqs)
	}

	var stall float64
	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			stall += c.access(now, b)
		}
	}

	// A redirect penalty for this block overlaps with waiting for the same
	// block's instructions to arrive: the misfetch is discovered while the
	// fill is in progress. Charge the larger of the two, not the sum.
	extra := stall
	if penalty > extra {
		extra = penalty
	}

	if redirect {
		if pf := c.cfg.Prefetcher; pf != nil {
			pf.Redirect(now + extra)
		}
	}

	var issue float64
	if uint(rec.N) < uint(len(c.issueTab)) {
		issue = c.issueTab[rec.N]
	} else {
		issue = float64(rec.N) / c.cfg.IssueWidth
	}
	if issue < 1 {
		issue = 1 // the BPU produces one fetch region per cycle
	}
	backend := float64(rec.N) * c.cfg.BackendCPI
	dt := issue + backend + extra
	c.cycle += dt
	st.Cycles += dt
	st.IssueCycles += issue
	st.BackendCycles += backend

	c.steps++
	if c.steps%(1<<14) == 0 && c.inflight != nil {
		c.scrub(now)
	}
}

// settle combines the BTB's verdict with the predictors' outcomes for the
// block's terminating branch, returning the penalty cycles and whether the
// pipeline redirected.
func (c *Core) settle(now float64, rec *trace.Record, o *Outcome) (extra float64, redirect bool) {
	st := &c.st
	br := rec.Br

	hit, bubble := c.probeBTB(now, rec, o)
	extra += bubble
	st.BubbleCycles += bubble

	if br.Taken {
		st.TakenBranches++
		st.BTBTakenLookups++
		if !hit {
			st.BTBMisses++
		}
	}

	// misfetch / resolveFlush outcomes, applied after the kind dispatch.
	// (Plain booleans instead of the previous closures: closures forced the
	// accumulators into addressable stack slots on the hottest branch path.)
	misfetch, resolve := false, false

	switch br.Kind {
	case isa.BrCond:
		st.CondBranches++
		correct := o.flags&outDirOK != 0
		switch {
		case hit && !correct:
			st.DirMispredicts++
			resolve = true
		case !hit && br.Taken:
			// BTB miss: the BPU assumed sequential flow. Decode discovers
			// the branch; if the direction predictor agrees "taken" the
			// redirect costs the misfetch penalty, otherwise the branch
			// resolves at execute.
			if correct {
				misfetch = true
			} else {
				st.DirMispredicts++
				resolve = true
			}
		}
		// BTB miss + not taken: the sequential assumption was right.

	case isa.BrUncond, isa.BrCall:
		if !hit {
			misfetch = true
		}

	case isa.BrRet:
		switch {
		case o.flags&outRASOK == 0:
			st.RASMispredicts++
			resolve = true
		case !hit:
			misfetch = true
		}

	case isa.BrIndirect, isa.BrIndCall:
		switch {
		case o.flags&outITCOK == 0:
			st.ITCMispredicts++
			resolve = true
		case !hit:
			misfetch = true
		}
	}
	if misfetch {
		extra += c.cfg.MisfetchPenalty
		st.MisfetchCycles += c.cfg.MisfetchPenalty
		redirect = true
	}
	if resolve {
		extra += c.cfg.ResolvePenalty
		st.ResolveCycles += c.cfg.ResolvePenalty
		redirect = true
	}
	return extra, redirect
}

// access performs one demand L1-I block access, returning exposed stall
// cycles.
func (c *Core) access(now float64, b isa.Addr) float64 {
	st := &c.st
	st.L1IAccesses++
	key := blockKey(b)
	hit := c.l1i.Lookup(key)
	var stall float64
	switch {
	case hit:
	default:
		if ready, ok := c.inflight.Take(key); ok {
			// A fill is in flight: wait out the residual latency only. A
			// barely-started fill is still an effective miss for miss
			// accounting (the paper's coverage numbers count misses the
			// prefetcher failed to hide).
			resid := ready - now
			if resid < 0 {
				resid = 0
			}
			stall = resid * c.cfg.Exposure
			st.PrefLate++
			st.PrefUseful++
			if resid >= c.halfLLCLat {
				st.L1IMisses++
			}
			c.fill(now, b, false)
		} else {
			st.L1IMisses++
			raw := float64(c.fillLatency(b | c.asBase))
			if c.cfg.PredecodePenalty > 0 {
				raw += c.cfg.PredecodePenalty
				st.PredecodeCycles += c.cfg.PredecodePenalty * c.cfg.Exposure
			}
			stall = raw * c.cfg.Exposure
			c.fill(now, b, true)
			st.DemandFills++
		}
	}
	st.L1IStallCycles += stall

	if pf := c.cfg.Prefetcher; pf != nil {
		miss := !hit
		c.reqs = pf.OnAccess(now, b, miss, c.reqs[:0])
		c.schedule(now, c.reqs)
	}
	if c.cfg.Recorder != nil {
		if !c.hasLast || key != c.lastBlock {
			c.cfg.Recorder.Record(key | c.keyTag)
			c.lastBlock = key
			c.hasLast = true
		}
	}
	return stall
}

// fill installs a block in the L1-I, mirroring the change into the BTB
// design (Confluence's synchronization; other designs ignore the hooks).
func (c *Core) fill(now float64, b isa.Addr, demand bool) {
	c.fillQuiet(now, b, demand)
	if c.cfg.BTB != nil {
		c.st.L1IFills++
	}
}

// fillQuiet is fill without the stat counter — the shared install path
// FastStep also drives (fast-forward moves no counters).
func (c *Core) fillQuiet(now float64, b isa.Addr, demand bool) {
	evicted, was := c.l1i.Insert(blockKey(b))
	d := c.cfg.BTB
	if d == nil {
		return
	}
	if was {
		d.BlockEvicted(isa.Addr(evicted << isa.BlockShift))
	}
	var branches []isa.PredecodedBranch
	if c.cfg.Prog != nil {
		branches = c.cfg.Prog.PredecodeBlock(b)
	}
	d.BlockFilled(now, b, branches, demand)
}

// schedule registers prefetch requests with the fill pipeline.
func (c *Core) schedule(now float64, reqs []prefetch.Request) {
	if len(reqs) == 0 || c.cfg.PerfectL1I {
		return
	}
	for _, r := range reqs {
		key := blockKey(r.Block)
		if c.l1i.Contains(key) {
			continue
		}
		if _, ok := c.inflight.Ready(key); ok {
			continue
		}
		ready := now + r.ExtraDelay + float64(c.fillLatency(r.Block|c.asBase))
		if ready < now {
			ready = now
		}
		c.inflight.Add(key, ready)
		c.st.PrefIssued++
	}
}

// scrub ages out long-completed, never-demanded fills (bad prefetches) to
// bound the in-flight table. The model does not charge cache pollution for
// them (DESIGN.md §5).
func (c *Core) scrub(now float64) {
	c.st.PrefDiscarded += uint64(c.inflight.Expire(now-2048, nil))
}
