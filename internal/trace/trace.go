// Package trace turns a synthetic workload into a dynamic control-flow
// stream: a sequence of executed basic blocks with resolved branch outcomes.
// The stream is what every instruction-supply mechanism consumes — it is the
// correct-path retire stream of one core.
//
// Executors are deterministic in their seed, cheap enough to re-run instead
// of storing traces, and may also be serialized to binary trace files for
// offline inspection (cmd/tracegen).
package trace

import (
	"math/rand/v2"

	"confluence/internal/flatmap"
	"confluence/internal/isa"
	"confluence/internal/program"
	"confluence/internal/synth"
)

// BranchInfo describes the resolved control transfer ending a basic block.
type BranchInfo struct {
	PC     isa.Addr       // branch instruction address
	Kind   isa.BranchKind // BrNone for fall-through blocks
	Taken  bool
	Target isa.Addr // actual target when taken; static target otherwise
}

// Record is one executed basic block.
type Record struct {
	Start isa.Addr
	N     int // instruction count, including the branch if any
	Br    BranchInfo
	Next  isa.Addr // start of the next executed block
	// ReqType is the request type being served; ReqBoundary marks the first
	// block of a new request (a natural temporal-stream boundary).
	ReqType     int
	ReqBoundary bool
}

// reqContext is one in-flight request's execution state. A server core
// time-slices many concurrent requests (connections); interleaving their
// code paths is what defies the L1-I — a single request's working set would
// often fit.
type reqContext struct {
	stack []int32 // return points (ExecNode indices)
	cur   int32   // current ExecNode index
	req   int
	// loopRem tracks active loops' remaining iterations, keyed by the
	// controlling branch site's PC. The layered call graph forbids
	// recursion, so a site is active at most once per context; only the
	// loops on the current call path are live at once, so a small flat
	// table beats a Go map on the every-conditional path.
	loopRem *flatmap.Map[int32]
}

// Executor walks a workload's control-flow graph serving an endless stream
// of concurrent requests, producing Records. It models one core's retire
// stream. It implements Source (Next never fails and never reaches EOF;
// Reset replays the identical stream from the construction seed).
//
// The walk runs over the program's execution-compiled flat CFG
// (program.ExecNodes): successor references are array indices rather than
// pointers, the node array follows code layout order, and nodes are
// pointer-free — so the dominant sequential control flow reads memory
// sequentially and the graph costs the garbage collector nothing to scan.
type Executor struct {
	w     *synth.Workload
	nodes []program.ExecNode
	seed  uint64
	rng   *rand.Rand

	ctxs    []*reqContext
	active  int
	quantum int // instructions left in the current scheduling quantum
	newRq   bool

	// Counters.
	Instructions uint64
	Requests     uint64
	Switches     uint64
}

// NewExecutor creates an executor; seed differentiates cores.
func NewExecutor(w *synth.Workload, seed uint64) *Executor {
	e := &Executor{w: w, nodes: w.Prog.ExecNodes(), seed: seed}
	e.init()
	return e
}

// init (re)builds the execution state from the workload and seed.
func (e *Executor) init() {
	e.rng = rand.New(rand.NewPCG(e.seed, 0xfeed^e.w.Prof.Seed))
	e.ctxs = e.ctxs[:0]
	e.active = 0
	e.Instructions, e.Requests, e.Switches = 0, 0, 0
	n := e.w.Prof.Concurrency
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		c := &reqContext{loopRem: flatmap.New[int32](16)}
		e.ctxs = append(e.ctxs, c)
		e.startRequest(c)
	}
	e.newRq = true
	e.quantum = e.drawQuantum()
}

// Reset implements Source: the executor restarts its deterministic walk.
func (e *Executor) Reset() error {
	e.init()
	return nil
}

func (e *Executor) startRequest(c *reqContext) {
	c.req = e.w.PickRequest(e.rng)
	c.cur = e.w.Entries[c.req]
	c.stack = c.stack[:0]
	e.Requests++
}

func (e *Executor) drawQuantum() int {
	q := e.w.Prof.QuantumInstr
	if q <= 0 {
		q = 500
	}
	// ±50% jitter: I/O waits and lock hand-offs are irregular.
	return q/2 + e.rng.IntN(q)
}

// yield switches to the next runnable context (round-robin).
func (e *Executor) yield() {
	if len(e.ctxs) <= 1 {
		e.quantum = e.drawQuantum()
		return
	}
	e.active = (e.active + 1) % len(e.ctxs)
	e.quantum = e.drawQuantum()
	e.Switches++
}

// Next fills rec with the next executed basic block and advances the walk.
// It implements Source; the returned error is always nil (the synthetic
// walk cannot fail and never ends).
func (e *Executor) Next(rec *Record) error {
	c := e.ctxs[e.active]
	cur := &e.nodes[c.cur]
	rec.Start = cur.Addr
	rec.N = int(cur.NInstr)
	rec.ReqType = c.req
	rec.ReqBoundary = e.newRq
	e.newRq = false
	e.Instructions += uint64(cur.NInstr)
	e.quantum -= int(cur.NInstr)

	kind := cur.BrKind
	if kind == isa.BrNone {
		rec.Br = BranchInfo{Kind: isa.BrNone}
		c.cur = cur.Fall
		rec.Next = e.nodes[c.cur].Addr
		return nil
	}
	info := BranchInfo{PC: cur.BrPC(), Kind: kind, Target: cur.Target}
	var next int32
	switch kind {
	case isa.BrCond:
		info.Taken = e.condOutcome(c, cur)
		if info.Taken {
			next = cur.TargetNode
		} else {
			next = cur.Fall
		}
	case isa.BrUncond:
		info.Taken = true
		next = cur.TargetNode
	case isa.BrCall:
		info.Taken = true
		c.stack = append(c.stack, cur.Fall)
		next = cur.TargetNode
	case isa.BrRet:
		info.Taken = true
		if n := len(c.stack); n > 0 {
			next = c.stack[n-1]
			c.stack = c.stack[:n-1]
			info.Target = e.nodes[next].Addr
		} else {
			// Top of the (implicit) server dispatch loop: the request is
			// complete; this connection picks up its next request, and the
			// scheduler switches to another connection.
			e.startRequest(c)
			e.yield()
			c = e.ctxs[e.active]
			next = c.cur
			info.Target = e.nodes[next].Addr
			e.newRq = true
		}
	case isa.BrIndirect, isa.BrIndCall:
		info.Taken = true
		next = e.pickIndirect(c, cur)
		info.Target = e.nodes[next].Addr
		if kind == isa.BrIndCall {
			c.stack = append(c.stack, cur.Fall)
		}
	}
	rec.Br = info
	c.cur = next
	rec.Next = e.nodes[next].Addr

	// Quantum expiry: switch connections at the next request-safe point
	// (only between basic blocks, and never mid-record).
	if e.quantum <= 0 && kind != isa.BrRet {
		e.yield()
		nc := e.ctxs[e.active]
		if nc != c {
			rec.Next = e.nodes[nc.cur].Addr
			// The architectural redirect to another context's PC looks like
			// an OS scheduling event; mark it as a request boundary for the
			// stream consumers.
			e.newRq = true
		}
	}
	return nil
}

// NextBatch implements Source. The synthetic walk cannot fail, so the batch
// always fills; the win over repeated Next calls is one interface dispatch
// per batch and a devirtualized inner loop.
func (e *Executor) NextBatch(dst []Record) (int, error) {
	for i := range dst {
		e.Next(&dst[i])
	}
	return len(dst), nil
}

// condOutcome resolves a conditional branch. Loop-controlling sites run a
// quasi-deterministic iteration counter (the site's characteristic trip
// count with occasional jitter); other conditionals are biased coin flips.
func (e *Executor) condOutcome(c *reqContext, br *program.ExecNode) bool {
	switch br.Loop {
	case program.LoopExitHeader:
		// Header visited before each iteration and once more to exit;
		// taken means exit.
		p, active := c.loopRem.Upsert(uint64(br.BrPC()))
		rem := *p
		if !active {
			rem = int32(e.drawTrips(br))
		}
		if rem == 0 {
			c.loopRem.Delete(uint64(br.BrPC()))
			return true
		}
		*p = rem - 1
		return false
	case program.LoopBackEdge:
		// Back edge visited after each body pass; taken means continue.
		p, active := c.loopRem.Upsert(uint64(br.BrPC()))
		rem := *p
		if !active {
			rem = int32(e.drawTrips(br)) - 1 // one pass already done
		}
		if rem <= 0 {
			c.loopRem.Delete(uint64(br.BrPC()))
			return false
		}
		*p = rem - 1
		return true
	default:
		return e.rng.Float64() < br.TakenBias
	}
}

// drawTrips samples this execution's trip count: usually exactly the
// site's characteristic count (loop bounds recur across requests, which is
// what makes both the direction predictor and SHIFT's temporal streams
// effective), with occasional ±1 data-dependent jitter.
func (e *Executor) drawTrips(br *program.ExecNode) int {
	t := int(br.TripMean)
	if e.rng.Float64() < 0.05 {
		t += e.rng.IntN(3) - 1
	}
	if t < 1 {
		t = 1
	}
	return t
}

// pickIndirect resolves an indirect site: with probability
// IndirectStability the per-(site,request-type) stable target, otherwise a
// uniformly random table entry (data-dependent dispatch).
func (e *Executor) pickIndirect(c *reqContext, br *program.ExecNode) int32 {
	tb := e.w.Prog.IndirectTargets(br)
	if len(tb) == 1 {
		return tb[0]
	}
	if e.rng.Float64() < e.w.IndirectStability() {
		return tb[stableIndex(uint64(br.BrPC()), uint64(c.req), len(tb))]
	}
	return tb[e.rng.IntN(len(tb))]
}

// stableIndex deterministically maps (site, request type) to a table slot.
func stableIndex(pc, req uint64, n int) int {
	x := pc*0x9e3779b97f4a7c15 ^ req*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int(x % uint64(n))
}

// Skip advances the executor by at least n instructions (fast-forward for
// de-correlating cores at startup).
func (e *Executor) Skip(n uint64) {
	var rec Record
	target := e.Instructions + n
	for e.Instructions < target {
		e.Next(&rec)
	}
}
