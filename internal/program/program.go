// Package program models a static program: functions made of basic blocks
// laid out in a flat address space, each block optionally ending in a branch
// site, encoded with the synthetic ISA into the binary image the L1-I
// notionally caches.
//
// A generator (package synth) builds the program as a pointer graph of
// Functions, BasicBlocks and BranchSites. Finalize links and validates that
// graph and compiles it into a Program, the only form that outlives
// construction: a flat, pointer-free execution CFG (ExecNodes) that package
// trace walks, plus the predecoded branches of every 64B image block that
// the BTB designs fill from. The graph and the image bytes are discarded
// once Finalize returns, so a live Program costs the garbage collector
// nothing to scan.
package program

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"confluence/internal/isa"
)

// LoopKind classifies conditional branch sites that control loops; the
// executor gives them quasi-deterministic per-site trip counts (predictable
// control flow, like real loop bounds) instead of per-visit coin flips.
type LoopKind uint8

const (
	// NotLoop: an ordinary conditional, governed by TakenBias.
	NotLoop LoopKind = iota
	// LoopExitHeader: while-style header; taken means *exit* the loop.
	LoopExitHeader
	// LoopBackEdge: do-while-style back edge; taken means *continue*.
	LoopBackEdge
)

// BranchSite is the static description of the control transfer ending a
// basic block. The branch instruction is always the block's last one.
type BranchSite struct {
	Kind isa.BranchKind // never BrNone

	// Target is the static target for direct branches (cond/uncond/call).
	Target isa.Addr

	// TakenBias is the probability a non-loop conditional branch is taken
	// on a given execution. Unconditional kinds ignore it (always taken).
	TakenBias float64

	// Loop marks loop-controlling conditionals; TripMean is the site's
	// characteristic iteration count (executions jitter slightly around
	// it).
	Loop     LoopKind
	TripMean int

	// Targets lists the candidate targets of indirect branches/calls.
	Targets []isa.Addr

	// TargetBlock and TargetBlocks name the targets symbolically while a
	// generator builds the graph, before layout assigns addresses.
	// Finalize reads only Target and Targets.
	TargetBlock  *BasicBlock
	TargetBlocks []*BasicBlock
}

// BasicBlock is a straight-line run of instructions. If Branch is non-nil it
// is the final instruction of the block; otherwise the block falls through
// into its successor.
type BasicBlock struct {
	Addr   isa.Addr
	NInstr int
	Branch *BranchSite // nil => fall-through block

	// Fall is the fall-through successor (and, for calls, the return
	// point) when it is not the address-adjacent block, which Finalize
	// links by default. Nil only for the final block of the program image,
	// which must end in an unconditional transfer.
	Fall *BasicBlock

	// idx is the block's position in ascending address order, which is
	// its node index in the finalized Program; filled by Finalize.
	idx int32
}

// Index returns the block's node index in the Program it was finalized
// into (see Program.ExecNodes); valid after Finalize.
func (b *BasicBlock) Index() int32 { return b.idx }

// End returns the address one past the last instruction of the block.
func (b *BasicBlock) End() isa.Addr { return b.Addr + isa.Addr(b.NInstr*isa.InstrBytes) }

// Function is a contiguous sequence of basic blocks with a single entry,
// Blocks[0].
type Function struct {
	ID     int
	Layer  int // depth in the layered call graph (0 = request entry)
	Blocks []*BasicBlock
}

// Entry returns the function's entry block.
func (f *Function) Entry() *BasicBlock { return f.Blocks[0] }

// Program is a finalized, laid-out program in its execution form. Apart
// from Name it holds only pointer-free data, and it is read-only after
// Finalize, so concurrent simulations share one Program without
// synchronization.
type Program struct {
	Name string

	// nodes is the execution-compiled CFG: one fixed-size node per basic
	// block in ascending address order, with successors as indices.
	// Executors walk this flat array — it follows code order, so the
	// dominant fall-through/sequential control flow walks memory
	// sequentially.
	nodes    []ExecNode
	indirect []int32 // pooled indirect-target node indices (ExecNode.TargetsOff/N)
	funcs    []Func  // ascending First

	// predecoded holds the branches of every 64B image block back to back;
	// block i's are predecoded[predecodeOff[i]:predecodeOff[i+1]].
	predecoded   []isa.PredecodedBranch
	predecodeOff []uint32

	imgBase isa.Addr // first 64B block of the image
	imgSize int      // image bytes, a multiple of isa.BlockBytes
}

// ExecNode is the flat execution form of one basic block. All successor
// references are indices into the same array; indirect target lists live in
// a shared pool addressed by TargetsOff/TargetsN. The struct is pointer-free
// and kept small (48 bytes) so the walk stays cache-dense; the terminating
// branch's PC is not stored — it is the block's last instruction,
// Addr + (NInstr-1)*4 (see BrPC).
type ExecNode struct {
	Addr      isa.Addr // block start
	Target    isa.Addr // static target for direct branches
	TakenBias float64

	Fall       int32 // index of the fall-through successor; -1 if none
	TargetNode int32 // index of the direct-branch target; -1 if none
	TargetsOff int32 // first indirect-candidate index in the pool
	TripMean   int32

	NInstr   uint16
	TargetsN uint16 // number of indirect candidates
	BrKind   isa.BranchKind
	Loop     LoopKind
}

// BrPC returns the terminating branch's PC (the block's last instruction).
func (n *ExecNode) BrPC() isa.Addr {
	return n.Addr + isa.Addr(n.NInstr-1)*isa.InstrBytes
}

// End returns the address one past the block's last instruction.
func (n *ExecNode) End() isa.Addr {
	return n.Addr + isa.Addr(n.NInstr)*isa.InstrBytes
}

// Func is one function of a finalized program. A function's blocks are
// contiguous in address order, so its nodes run from First up to the next
// function's First (or the end of the node array).
type Func struct {
	Layer int32 // depth in the layered call graph (0 = request entry)
	Entry int32 // node index of the entry block
	First int32 // node index of the lowest-address block
}

// ExecNodes returns the flat compiled CFG, one node per basic block in
// ascending address order.
func (p *Program) ExecNodes() []ExecNode { return p.nodes }

// IndirectTargets returns the pooled indirect-candidate node indices for
// node n.
func (p *Program) IndirectTargets(n *ExecNode) []int32 {
	return p.indirect[n.TargetsOff : n.TargetsOff+int32(n.TargetsN)]
}

// Funcs returns the function table in ascending address order.
func (p *Program) Funcs() []Func { return p.funcs }

// NodeAt returns the index of the node starting exactly at addr, or -1.
func (p *Program) NodeAt(addr isa.Addr) int32 {
	i := sort.Search(len(p.nodes), func(i int) bool { return p.nodes[i].Addr >= addr })
	if i < len(p.nodes) && p.nodes[i].Addr == addr {
		return int32(i)
	}
	return -1
}

// FuncOf returns the index into Funcs of the function holding node.
func (p *Program) FuncOf(node int32) int {
	return sort.Search(len(p.funcs), func(i int) bool { return p.funcs[i].First > node }) - 1
}

// ImageBase returns the address of the image's first 64B block.
func (p *Program) ImageBase() isa.Addr { return p.imgBase }

// FootprintBytes returns the size of the laid-out image in bytes.
func (p *Program) FootprintBytes() int { return p.imgSize }

// NumCacheBlocks returns the number of 64B blocks the image spans.
func (p *Program) NumCacheBlocks() int { return p.imgSize / isa.BlockBytes }

// Finalize links the laid-out function graph (address-adjacent fall-through
// edges, branch targets by address), validates it, and compiles it into
// its execution form. The graph is not referenced by the result.
func Finalize(name string, funcs []*Function) (*Program, error) {
	var n int
	for _, f := range funcs {
		if len(f.Blocks) == 0 {
			return nil, fmt.Errorf("program: function %d has no blocks", f.ID)
		}
		n += len(f.Blocks)
	}
	if n == 0 {
		return nil, fmt.Errorf("program: no blocks")
	}
	blocks := make([]*BasicBlock, 0, n)
	for _, f := range funcs {
		blocks = append(blocks, f.Blocks...)
	}
	slices.SortFunc(blocks, func(a, b *BasicBlock) int { return cmp.Compare(a.Addr, b.Addr) })
	for i, b := range blocks {
		if i > 0 && b.Addr == blocks[i-1].Addr {
			return nil, fmt.Errorf("program: duplicate block at %#x", b.Addr)
		}
		b.idx = int32(i)
	}
	p := &Program{Name: name}
	if err := p.compile(blocks); err != nil {
		return nil, err
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := p.indexFuncs(funcs); err != nil {
		return nil, err
	}
	if err := p.predecode(); err != nil {
		return nil, err
	}
	return p, nil
}

// compile flattens the sorted blocks into the node array, resolving
// successors to node indices.
func (p *Program) compile(blocks []*BasicBlock) error {
	find := func(a isa.Addr) int32 {
		i := sort.Search(len(blocks), func(i int) bool { return blocks[i].Addr >= a })
		if i < len(blocks) && blocks[i].Addr == a {
			return int32(i)
		}
		return -1
	}
	p.nodes = make([]ExecNode, len(blocks))
	for i, b := range blocks {
		if b.NInstr <= 0 || b.NInstr > math.MaxUint16 {
			return fmt.Errorf("program: block %#x has %d instructions", b.Addr, b.NInstr)
		}
		n := ExecNode{Addr: b.Addr, NInstr: uint16(b.NInstr), Fall: -1, TargetNode: -1}
		switch {
		case b.Fall != nil:
			if int(b.Fall.idx) >= len(blocks) || blocks[b.Fall.idx] != b.Fall {
				return fmt.Errorf("program: block %#x falls into a block outside the program", b.Addr)
			}
			n.Fall = b.Fall.idx
		case i+1 < len(blocks) && blocks[i+1].Addr == b.End():
			n.Fall = int32(i + 1)
		}
		if br := b.Branch; br != nil {
			pc := n.BrPC()
			if !br.Kind.IsBranch() {
				return fmt.Errorf("program: block %#x branch kind %v", b.Addr, br.Kind)
			}
			n.BrKind = br.Kind
			n.Target = br.Target
			n.TakenBias = br.TakenBias
			n.Loop = br.Loop
			n.TripMean = int32(br.TripMean)
			if br.Kind.IsDirect() {
				if n.TargetNode = find(br.Target); n.TargetNode < 0 {
					return fmt.Errorf("program: branch at %#x targets %#x: no such block", pc, br.Target)
				}
			}
			if br.Kind == isa.BrIndirect || br.Kind == isa.BrIndCall {
				if len(br.Targets) == 0 || len(br.Targets) > math.MaxUint16 {
					return fmt.Errorf("program: indirect branch at %#x has %d targets", pc, len(br.Targets))
				}
				n.TargetsOff = int32(len(p.indirect))
				n.TargetsN = uint16(len(br.Targets))
				for _, t := range br.Targets {
					tn := find(t)
					if tn < 0 {
						return fmt.Errorf("program: indirect branch at %#x targets %#x: no such block", pc, t)
					}
					p.indirect = append(p.indirect, tn)
				}
			}
		}
		p.nodes[i] = n
	}
	return nil
}

// validate checks the structural invariants of the node array: alignment,
// no overlap, and a successor wherever control can fall through.
func (p *Program) validate() error {
	var prevEnd isa.Addr
	for i := range p.nodes {
		n := &p.nodes[i]
		if !isa.Aligned(n.Addr) {
			return fmt.Errorf("program: block %#x not instruction-aligned", n.Addr)
		}
		if i > 0 && n.Addr < prevEnd {
			return fmt.Errorf("program: block %#x overlaps previous (ends %#x)", n.Addr, prevEnd)
		}
		prevEnd = n.End()
		if n.Fall >= 0 {
			continue
		}
		switch {
		case n.BrKind == isa.BrCond:
			return fmt.Errorf("program: conditional at %#x lacks fall-through", n.BrPC())
		case n.BrKind.IsCall():
			return fmt.Errorf("program: call at %#x lacks return point", n.BrPC())
		case n.BrKind == isa.BrNone && i != len(p.nodes)-1:
			return fmt.Errorf("program: block %#x falls off a cliff", n.Addr)
		}
	}
	return nil
}

// indexFuncs builds the function table, checking every function occupies
// a contiguous run of nodes.
func (p *Program) indexFuncs(funcs []*Function) error {
	p.funcs = make([]Func, len(funcs))
	for i, f := range funcs {
		lo, hi := f.Blocks[0].idx, f.Blocks[0].idx
		for _, b := range f.Blocks[1:] {
			lo, hi = min(lo, b.idx), max(hi, b.idx)
		}
		if int(hi-lo)+1 != len(f.Blocks) {
			return fmt.Errorf("program: function %d's blocks are not contiguous", f.ID)
		}
		p.funcs[i] = Func{Layer: int32(f.Layer), Entry: f.Blocks[0].idx, First: lo}
	}
	slices.SortFunc(p.funcs, func(a, b Func) int { return cmp.Compare(a.First, b.First) })
	return nil
}

// predecode encodes the nodes into a binary image and predecodes every 64B
// block of it, the image-side operation Confluence performs on each block
// filled into the L1-I. Only the predecoded table and the image's span are
// kept.
func (p *Program) predecode() error {
	base := isa.BlockOf(p.nodes[0].Addr)
	size := int(p.nodes[len(p.nodes)-1].End() - base)
	if size%isa.BlockBytes != 0 {
		size += isa.BlockBytes - size%isa.BlockBytes
	}
	img := make([]byte, size)
	nop := isa.MustEncode(isa.Instr{})
	branches := 0
	for i := range p.nodes {
		n := &p.nodes[i]
		off := int(n.Addr - base)
		body := int(n.NInstr)
		if n.BrKind != isa.BrNone {
			body--
			branches++
		}
		for j := 0; j < body; j++ {
			putWord(img, off+j*isa.InstrBytes, nop)
		}
		if n.BrKind == isa.BrNone {
			continue
		}
		in := isa.Instr{Kind: n.BrKind}
		if n.BrKind.IsDirect() {
			d, err := isa.Disp(n.BrPC(), n.Target)
			if err != nil {
				return err
			}
			in.Disp = d
		}
		w, err := isa.Encode(in)
		if err != nil {
			return err
		}
		putWord(img, off+body*isa.InstrBytes, w)
	}
	nb := size / isa.BlockBytes
	p.predecoded = make([]isa.PredecodedBranch, 0, branches)
	p.predecodeOff = make([]uint32, nb+1)
	for i := 0; i < nb; i++ {
		off := i * isa.BlockBytes
		p.predecoded = isa.Predecode(p.predecoded, img[off:off+isa.BlockBytes], base+isa.Addr(off))
		p.predecodeOff[i+1] = uint32(len(p.predecoded))
	}
	p.imgBase, p.imgSize = base, size
	return nil
}

func putWord(img []byte, off int, w isa.Word) {
	img[off] = byte(w)
	img[off+1] = byte(w >> 8)
	img[off+2] = byte(w >> 16)
	img[off+3] = byte(w >> 24)
}

// PredecodeBlock returns the predecoded branches of the 64B block at base
// (which must be block-aligned), or nil outside the image. It is the
// image-side operation Confluence performs on every block filled into the
// L1-I, precomputed by Finalize.
func (p *Program) PredecodeBlock(block isa.Addr) []isa.PredecodedBranch {
	off := int(block - p.imgBase)
	if off < 0 || off+isa.BlockBytes > p.imgSize {
		return nil
	}
	i := off >> isa.BlockShift
	lo, hi := p.predecodeOff[i], p.predecodeOff[i+1]
	return p.predecoded[lo:hi:hi]
}

// StaticBranchStats summarizes the static branch population, matching the
// "static" row of the paper's Table 2 when divided over occupied blocks.
type StaticBranchStats struct {
	Blocks          int     // 64B cache blocks occupied by code
	Branches        int     // total branch sites
	PerBlock        float64 // branches per occupied 64B block
	CondFrac        float64
	TakenSitesUpper int // sites that can ever be taken (uncond + cond)
}

// StaticStats computes the static branch census over the image.
func (p *Program) StaticStats() StaticBranchStats {
	var s StaticBranchStats
	var cond int
	// Nodes ascend and never overlap, so the 64B blocks they occupy are
	// visited in non-decreasing order: counting each new one is exact.
	next := isa.Addr(0) // lowest block not yet counted
	for i := range p.nodes {
		n := &p.nodes[i]
		for a := max(isa.BlockOf(n.Addr), next); a < n.End(); a += isa.BlockBytes {
			s.Blocks++
			next = a + isa.BlockBytes
		}
		if n.BrKind != isa.BrNone {
			s.Branches++
			if n.BrKind == isa.BrCond {
				cond++
			}
			s.TakenSitesUpper++
		}
	}
	if s.Blocks > 0 {
		s.PerBlock = float64(s.Branches) / float64(s.Blocks)
	}
	if s.Branches > 0 {
		s.CondFrac = float64(cond) / float64(s.Branches)
	}
	return s
}
