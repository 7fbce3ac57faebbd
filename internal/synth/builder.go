package synth

import (
	"fmt"
	"math"
	"math/rand/v2"

	"confluence/internal/isa"
	"confluence/internal/program"
)

// mathPow is a local alias keeping the generator arithmetic greppable.
func mathPow(x, y float64) float64 { return math.Pow(x, y) }

// Workload couples a generated program with its request-execution model:
// per-request-type entry functions and the request mix. A workload may
// instead stand for a captured trace: TraceDir names a directory of
// per-core trace files replacing live execution, and Prog may be nil when
// the capture's program image is unavailable (external traces).
type Workload struct {
	Prof    Profile
	Prog    *program.Program
	Entries []int32   // Entries[r] is the entry node of request type r
	mixCum  []float64 // cumulative Zipf mix over request types

	// TraceDir, when non-empty, replays the capture in that directory
	// through the timing model instead of walking Prog with executors
	// (see trace.OpenDirSource for the per-core striping semantics).
	TraceDir string
}

// PickRequest samples a request type from the workload mix.
func (w *Workload) PickRequest(rng *rand.Rand) int {
	x := rng.Float64()
	for i, c := range w.mixCum {
		if x < c {
			return i
		}
	}
	return len(w.mixCum) - 1
}

// NumRequestTypes returns the number of request types.
func (w *Workload) NumRequestTypes() int { return len(w.Entries) }

// IndirectStability exposes the profile's indirect-dispatch stability to the
// executor.
func (w *Workload) IndirectStability() float64 { return w.Prof.IndirectStability }

const (
	maxBlockLen   = 15 // fits the conventional BTB's 4-bit fall-through field
	imageBase     = isa.Addr(0x40_0000)
	sharedCluster = -1
)

// Build generates the program and workload for a profile. Generation is
// fully deterministic in Profile.Seed. The function graph is built as
// scaffolding and dropped once finalized: the workload keeps only the
// program's flat execution form.
func Build(prof Profile) (*Workload, error) {
	if prof.Layers < 3 {
		return nil, fmt.Errorf("synth: need >=3 layers, got %d", prof.Layers)
	}
	if prof.RequestTypes < 1 || prof.Functions < prof.RequestTypes+prof.Layers {
		return nil, fmt.Errorf("synth: bad sizing (functions=%d requests=%d)", prof.Functions, prof.RequestTypes)
	}
	b := &builder{
		prof: prof,
		rng:  rand.New(rand.NewPCG(prof.Seed, 0x5eed)),
	}
	b.makeShells()
	// Generate bodies bottom-up so call sites always target existing bodies.
	for l := prof.Layers - 1; l >= 0; l-- {
		for _, f := range b.layers[l] {
			b.genFunction(f)
		}
	}
	b.layout()
	prog, err := program.Finalize(prof.Name, b.funcs)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", prof.Name, err)
	}
	w := &Workload{Prof: prof, Prog: prog}
	for _, f := range b.layers[0] {
		w.Entries = append(w.Entries, f.Entry().Index())
	}
	w.mixCum = zipfCum(len(w.Entries), prof.ZipfTheta)
	return w, nil
}

type builder struct {
	prof   Profile
	rng    *rand.Rand
	funcs  []*program.Function
	layers [][]*program.Function
	// cluster[f.ID] is the request-type cluster of a mid-layer function
	// (sharedCluster for functions visible to all request types).
	cluster []int
	// calleePool[l][c] lists layer-l functions callable from cluster c
	// (cluster-c functions plus shared ones); poolCursor rotates through
	// each pool so every function is actually reachable — uniform random
	// draws would leave most of the program dead code.
	calleePool [][][]*program.Function
	poolCursor [][]int
	leafCum    []float64 // Zipf over leaf functions (hot shared primitives)
}

func (b *builder) makeShells() {
	p := b.prof
	nLeaf := int(float64(p.Functions) * p.LeafFrac)
	if nLeaf < p.Layers {
		nLeaf = p.Layers
	}
	nMidLayers := p.Layers - 2
	nMid := p.Functions - p.RequestTypes - nLeaf
	if nMid < nMidLayers*p.RequestTypes {
		nMid = nMidLayers * p.RequestTypes
	}
	perMid := nMid / nMidLayers

	b.layers = make([][]*program.Function, p.Layers)
	b.cluster = make([]int, 0, p.Functions+16)
	id := 0
	add := func(layer, cluster int) *program.Function {
		f := &program.Function{ID: id, Layer: layer}
		id++
		b.funcs = append(b.funcs, f)
		b.layers[layer] = append(b.layers[layer], f)
		b.cluster = append(b.cluster, cluster)
		return f
	}
	for r := 0; r < p.RequestTypes; r++ {
		add(0, r)
	}
	for l := 1; l <= nMidLayers; l++ {
		nShared := int(float64(perMid) * p.SharedMidFrac)
		for i := 0; i < perMid; i++ {
			c := sharedCluster
			if i >= nShared {
				c = (i - nShared) % p.RequestTypes
			}
			add(l, c)
		}
	}
	for i := 0; i < nLeaf; i++ {
		add(p.Layers-1, sharedCluster)
	}

	// Precompute callee pools per (layer, cluster).
	b.calleePool = make([][][]*program.Function, p.Layers)
	b.poolCursor = make([][]int, p.Layers)
	for l := 1; l < p.Layers; l++ {
		pools := make([][]*program.Function, p.RequestTypes)
		cursors := make([]int, p.RequestTypes)
		var shared []*program.Function
		for _, f := range b.layers[l] {
			if b.cluster[f.ID] == sharedCluster {
				shared = append(shared, f)
			}
		}
		for c := 0; c < p.RequestTypes; c++ {
			var pool []*program.Function
			for _, f := range b.layers[l] {
				if b.cluster[f.ID] == c {
					pool = append(pool, f)
				}
			}
			pools[c] = append(pool, shared...)
			cursors[c] = b.rng.IntN(len(pools[c]) + 1)
		}
		b.calleePool[l] = pools
		b.poolCursor[l] = cursors
	}
	// Leaf popularity is Zipf but not extreme: a too-hot leaf set would sit
	// permanently in the L1-I and mask the workload's instruction-supply
	// pressure.
	b.leafCum = zipfCum(len(b.layers[p.Layers-1]), 0.5)
}

// zipfCum returns the cumulative Zipf(theta) distribution over n items.
func zipfCum(n int, theta float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1.0 / math.Pow(float64(i+1), theta)
		sum += w[i]
	}
	cum := make([]float64, n)
	acc := 0.0
	for i := range w {
		acc += w[i] / sum
		cum[i] = acc
	}
	return cum
}

func (b *builder) pickLeaf() *program.Function {
	x := b.rng.Float64()
	leaves := b.layers[b.prof.Layers-1]
	for i, c := range b.leafCum {
		if x < c {
			return leaves[i]
		}
	}
	return leaves[len(leaves)-1]
}

// pickCallee selects a static call target for a function in the given
// layer and cluster, rotating through the cluster's pool so the whole
// program is reachable.
func (b *builder) pickCallee(layer, cluster int) *program.Function {
	p := b.prof
	if layer >= p.Layers-2 || b.rng.Float64() < p.CallsToLeafFrac {
		return b.pickLeaf()
	}
	if cluster == sharedCluster {
		cluster = b.rng.IntN(p.RequestTypes)
	}
	pool := b.calleePool[layer+1][cluster]
	if len(pool) == 0 {
		pool = b.layers[layer+1]
		return pool[b.rng.IntN(len(pool))]
	}
	cur := &b.poolCursor[layer+1][cluster]
	f := pool[*cur%len(pool)]
	*cur++
	return f
}

// fnGen builds one function's structured CFG.
type fnGen struct {
	b         *builder
	f         *program.Function
	cur       *program.BasicBlock // open (unterminated) block, or nil
	loopDepth int                 // >0 while generating a loop body
}

func (b *builder) genFunction(f *program.Function) {
	g := &fnGen{b: b, f: f}
	budget := b.blocksBudget(f.Layer)
	g.open()
	g.genBody(budget, 0)
	// Epilogue: close with a return.
	g.ensureOpen()
	g.emit(1 + b.rng.IntN(2))
	g.close(&program.BranchSite{Kind: isa.BrRet})
}

func (b *builder) blocksBudget(layer int) int {
	m := b.prof.MeanBlocksPerFn
	// Request entry points are large dispatchers (parse, validate, lock,
	// plan, execute, log, commit, ...) fanning out into many subsystem
	// calls; the first service layer is wide too. This is what gives each
	// request a code footprint far beyond the L1-I.
	switch layer {
	case 0:
		m *= 8
	case 1:
		m *= 2
	case 2:
		m = m * 3 / 2
	case b.prof.Layers - 1:
		// Leaf primitives (copy, hash, latch, compare) are small and tight;
		// oversized leaves would soak up most dynamic instructions in a few
		// KB of permanently L1-I-resident code.
		m = max(3, m/3)
	}
	// Geometric-ish around the mean, min 3.
	n := 3 + geometric(b.rng, float64(m-3))
	if n > 4*m {
		n = 4 * m
	}
	return n
}

// geometric samples a geometric variate with the given mean (>=0).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1.0 / (mean + 1.0)
	n := 0
	for rng.Float64() >= p && n < 1024 {
		n++
	}
	return n
}

func (g *fnGen) open() *program.BasicBlock {
	blk := &program.BasicBlock{NInstr: 0}
	g.f.Blocks = append(g.f.Blocks, blk)
	g.cur = blk
	return blk
}

func (g *fnGen) ensureOpen() {
	if g.cur == nil {
		g.open()
	}
}

// emit appends n instructions to the open block, splitting at maxBlockLen.
func (g *fnGen) emit(n int) {
	g.ensureOpen()
	for n > 0 {
		room := maxBlockLen - g.cur.NInstr
		if room == 0 {
			g.open() // previous block falls through
			room = maxBlockLen
		}
		take := n
		if take > room {
			take = room
		}
		g.cur.NInstr += take
		n -= take
	}
}

// close terminates the open block with the branch site. The branch occupies
// one instruction slot.
func (g *fnGen) close(site *program.BranchSite) *program.BasicBlock {
	g.ensureOpen()
	if g.cur.NInstr >= maxBlockLen {
		g.open()
	}
	g.cur.NInstr++
	g.cur.Branch = site
	blk := g.cur
	g.cur = nil
	return blk
}

// genBody emits constructs until the block budget is spent. Control always
// falls out of the generator with an open block.
func (g *fnGen) genBody(budget, depth int) {
	p := g.b.prof
	isLeaf := g.f.Layer == p.Layers-1
	for budget > 0 {
		w := g.constructWeights(isLeaf, depth)
		switch pickWeighted(g.b.rng, w) {
		case cPlain:
			g.emit(g.blockLen())
			budget--
		case cIf:
			budget -= g.genIf(budget, depth)
		case cIfElse:
			budget -= g.genIfElse(budget, depth)
		case cLoop:
			budget -= g.genLoop(budget, depth)
		case cCall:
			budget -= g.genCall()
		case cSwitch:
			budget -= g.genSwitch(budget)
		}
	}
	g.ensureOpen()
}

type construct int

const (
	cPlain construct = iota
	cIf
	cIfElse
	cLoop
	cCall
	cSwitch
	numConstructs
)

func (g *fnGen) constructWeights(isLeaf bool, depth int) [numConstructs]float64 {
	p := g.b.prof
	w := [numConstructs]float64{
		cPlain: p.WPlain, cIf: p.WIf, cIfElse: p.WIfElse,
		cLoop: p.WLoop, cCall: p.WCall, cSwitch: p.WSwitch,
	}
	if isLeaf {
		w[cCall], w[cSwitch] = 0, 0 // leaves call nothing: terminates the graph
		w[cPlain] += p.WCall
		w[cLoop] *= 0.5 // primitive loops exist but don't dominate
	}
	if g.loopDepth > 0 {
		// Inner loops rarely fan out into deep call trees: per-iteration
		// work is mostly straight-line code plus hot primitives. Without
		// damping, loop trip counts compound multiplicatively through the
		// call graph and request lengths explode. DSS-style profiles relax
		// the damping for *driver* loops (layers 0-1): a TPC-H scan loop
		// re-walks a whole operator stack per tuple batch.
		scale := 0.2
		if g.f.Layer <= 1 {
			scale = p.LoopCallScale
		}
		w[cCall] *= scale
		w[cLoop] *= 0.3
		w[cSwitch] = 0
	}
	// Deep layers fan out less (utility code calls few things); this keeps
	// per-request call trees wide at the top but bounded overall.
	switch {
	case g.f.Layer >= 4:
		w[cCall] *= 0.35
	case g.f.Layer >= 3:
		w[cCall] *= 0.55
	}
	if depth >= 3 { // bound nesting
		w[cIf], w[cIfElse], w[cLoop], w[cSwitch] = 0, 0, 0, 0
	}
	return w
}

func pickWeighted(rng *rand.Rand, w [numConstructs]float64) construct {
	var sum float64
	for _, x := range w {
		sum += x
	}
	t := rng.Float64() * sum
	for i, x := range w {
		if t < x {
			return construct(i)
		}
		t -= x
	}
	return cPlain
}

func (g *fnGen) blockLen() int {
	n := 1 + geometric(g.b.rng, g.b.prof.MeanBlockLen-1)
	if n > maxBlockLen-1 {
		n = maxBlockLen - 1
	}
	return n
}

// genIf: test; cond-branch over body to join.
func (g *fnGen) genIf(budget, depth int) int {
	g.emit(g.blockLen())
	site := &program.BranchSite{Kind: isa.BrCond}
	if g.b.rng.Float64() < g.b.prof.ErrorCheckFrac {
		// Error check: the guarded body is skipped almost always.
		site.TakenBias = 0.985 + 0.014*g.b.rng.Float64()
	} else {
		// Common work: the body almost always runs.
		site.TakenBias = 0.002 + 0.018*g.b.rng.Float64()
	}
	g.close(site)
	inner := g.bodyBudget(budget - 2)
	g.open()
	g.genBody(inner, depth+1)
	join := g.joinBlock()
	site.TargetBlock = join
	return 2 + inner
}

// genIfElse: cond to else; then-body; jump to join; else-body; join.
func (g *fnGen) genIfElse(budget, depth int) int {
	g.emit(g.blockLen())
	cond := &program.BranchSite{Kind: isa.BrCond}
	if g.b.rng.Float64() < g.b.prof.MixedBiasFrac {
		cond.TakenBias = 0.3 + 0.4*g.b.rng.Float64() // data-dependent
	} else if g.b.rng.Float64() < 0.5 {
		cond.TakenBias = 0.95 + 0.04*g.b.rng.Float64() // else-side dominant
	} else {
		cond.TakenBias = 0.01 + 0.04*g.b.rng.Float64() // then-side dominant
	}
	g.close(cond)
	thenBudget := g.bodyBudget((budget - 4) / 2)
	elseBudget := g.bodyBudget((budget - 4) / 2)
	g.open()
	g.genBody(thenBudget, depth+1)
	g.emit(1)
	jmp := &program.BranchSite{Kind: isa.BrUncond}
	g.close(jmp)
	elseEntry := g.open()
	cond.TargetBlock = elseEntry
	g.genBody(elseBudget, depth+1)
	join := g.joinBlock()
	jmp.TargetBlock = join
	return 4 + thenBudget + elseBudget
}

// loopTrips draws a per-site characteristic trip count, log-uniform in
// [LoopTripMin, LoopTripMax].
func (g *fnGen) loopTrips() int {
	p := g.b.prof
	lo, hi := float64(p.LoopTripMin), float64(p.LoopTripMax)
	if hi <= lo {
		return p.LoopTripMin
	}
	t := lo * mathPow(hi/lo, g.b.rng.Float64())
	return int(t + 0.5)
}

// genLoop emits either a while-style loop (header cond exits forward, body
// jumps back) or a do-while (body, conditional back edge). The controlling
// conditional carries the site's characteristic trip count; the executor
// runs it quasi-deterministically, so trip counts — like real loop bounds —
// recur across requests.
func (g *fnGen) genLoop(budget, depth int) int {
	inner := g.bodyBudget(budget - 3)
	trips := g.loopTrips()
	g.loopDepth++
	if g.b.rng.Float64() < 0.5 {
		// while: header cond -> exit (taken = leave loop).
		header := g.joinBlock() // loop header begins a fresh block
		g.emit(1 + g.b.rng.IntN(3))
		exit := &program.BranchSite{
			Kind: isa.BrCond, Loop: program.LoopExitHeader, TripMean: trips,
			TakenBias: 1 / float64(trips+1),
		}
		g.close(exit)
		g.open()
		g.genBody(inner, depth+1)
		g.emit(1)
		back := &program.BranchSite{Kind: isa.BrUncond, TargetBlock: header}
		g.close(back)
		join := g.open()
		exit.TargetBlock = join
	} else {
		// do-while: body; cond back edge (taken = continue).
		entry := g.joinBlock()
		g.genBody(inner, depth+1)
		g.emit(1)
		back := &program.BranchSite{
			Kind: isa.BrCond, Loop: program.LoopBackEdge, TripMean: trips,
			TakenBias:   float64(trips) / float64(trips+1),
			TargetBlock: entry,
		}
		g.close(back)
		g.open()
	}
	g.loopDepth--
	return 3 + inner
}

// genCall closes the open block with a (possibly indirect) call site.
// Calls inside loop bodies go to hot leaf primitives only (per-tuple /
// per-byte work), bounding dynamic request size.
func (g *fnGen) genCall() int {
	p := g.b.prof
	g.emit(g.blockLen())
	cluster := g.b.cluster[g.f.ID]
	if g.loopDepth > 0 && (p.LoopCallLeafOnly || g.f.Layer > 1) {
		g.close(&program.BranchSite{Kind: isa.BrCall, TargetBlock: g.b.pickLeaf().Entry()})
		g.open()
		return 2
	}
	if g.b.rng.Float64() < p.IndirectCallFrac && g.f.Layer < p.Layers-2 {
		site := &program.BranchSite{Kind: isa.BrIndCall}
		k := 2 + g.b.rng.IntN(p.IndirectFanout)
		seen := map[*program.Function]bool{}
		for len(site.TargetBlocks) < k {
			callee := g.b.pickCallee(g.f.Layer, cluster)
			if seen[callee] {
				if len(seen) >= k { // pool exhausted
					break
				}
				continue
			}
			seen[callee] = true
			site.TargetBlocks = append(site.TargetBlocks, callee.Entry())
		}
		g.close(site)
	} else {
		callee := g.b.pickCallee(g.f.Layer, cluster)
		g.close(&program.BranchSite{Kind: isa.BrCall, TargetBlock: callee.Entry()})
	}
	g.open()
	return 2
}

// genSwitch: indirect jump to one of k case bodies, each jumping to a join.
func (g *fnGen) genSwitch(budget int) int {
	g.emit(g.blockLen())
	sw := &program.BranchSite{Kind: isa.BrIndirect}
	g.close(sw)
	k := 3 + g.b.rng.IntN(4)
	if k > budget-1 {
		k = max(2, budget-1)
	}
	var jumps []*program.BranchSite
	for i := 0; i < k; i++ {
		caseEntry := g.open()
		sw.TargetBlocks = append(sw.TargetBlocks, caseEntry)
		g.emit(g.blockLen())
		j := &program.BranchSite{Kind: isa.BrUncond}
		g.close(j)
		jumps = append(jumps, j)
	}
	join := g.open()
	for _, j := range jumps {
		j.TargetBlock = join
	}
	return 1 + k
}

// joinBlock returns the current open block if it is still empty (making it a
// valid branch target) or opens a fresh one.
func (g *fnGen) joinBlock() *program.BasicBlock {
	if g.cur != nil && g.cur.NInstr == 0 {
		return g.cur
	}
	return g.open()
}

func (g *fnGen) bodyBudget(remaining int) int {
	if remaining < 1 {
		return 1
	}
	n := 1 + g.b.rng.IntN(min(remaining, 6))
	return n
}

// layout assigns addresses: functions sequential in ID order, each aligned
// to 16B, blocks contiguous within a function; then resolves symbolic
// targets to addresses.
func (b *builder) layout() {
	addr := imageBase
	for _, f := range b.funcs {
		if addr%16 != 0 {
			addr += 16 - addr%16
		}
		for _, blk := range f.Blocks {
			blk.Addr = addr
			addr += isa.Addr(blk.NInstr * isa.InstrBytes)
		}
	}
	for _, f := range b.funcs {
		for _, blk := range f.Blocks {
			br := blk.Branch
			if br == nil {
				continue
			}
			if br.TargetBlock != nil {
				br.Target = br.TargetBlock.Addr
			}
			for _, tb := range br.TargetBlocks {
				br.Targets = append(br.Targets, tb.Addr)
			}
		}
	}
	// Drop zero-length trailing open blocks (created by joins at function
	// end that never received content — the epilogue guarantees the real
	// final block is a return, so empties can only appear mid-stream where
	// a join was immediately followed by another join).
	for _, f := range b.funcs {
		kept := f.Blocks[:0]
		for _, blk := range f.Blocks {
			if blk.NInstr > 0 {
				kept = append(kept, blk)
			}
		}
		f.Blocks = kept
	}
}
