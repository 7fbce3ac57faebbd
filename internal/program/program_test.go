package program

import (
	"reflect"
	"slices"
	"testing"

	"confluence/internal/isa"
)

// tinyProgram finalizes a two-function program built by hand:
//
//	f0: b0 [3 instr, cond -> b2]   (falls through to b1)
//	    b1 [2 instr, call -> f1]   (returns to b2)
//	    b2 [2 instr, ret]
//	f1: b3 [4 instr, ret]
func tinyProgram(t *testing.T) (*Program, []*BasicBlock) {
	t.Helper()
	base := isa.Addr(0x10000)
	b0 := &BasicBlock{Addr: base, NInstr: 3}
	b1 := &BasicBlock{Addr: b0.End(), NInstr: 2}
	b2 := &BasicBlock{Addr: b1.End(), NInstr: 2}
	b3 := &BasicBlock{Addr: b2.End(), NInstr: 4}
	b0.Branch = &BranchSite{Kind: isa.BrCond, Target: b2.Addr, TakenBias: 0.5}
	b1.Branch = &BranchSite{Kind: isa.BrCall, Target: b3.Addr}
	b2.Branch = &BranchSite{Kind: isa.BrRet}
	b3.Branch = &BranchSite{Kind: isa.BrRet}
	f0 := &Function{ID: 0, Blocks: []*BasicBlock{b0, b1, b2}}
	f1 := &Function{ID: 1, Layer: 1, Blocks: []*BasicBlock{b3}}
	p, err := Finalize("tiny", []*Function{f0, f1})
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return p, []*BasicBlock{b0, b1, b2, b3}
}

// finalizeOne finalizes a single function made of blocks.
func finalizeOne(blocks ...*BasicBlock) (*Program, error) {
	return Finalize("", []*Function{{Blocks: blocks}})
}

func TestFinalizeLinksTargetsAndFallthrough(t *testing.T) {
	p, bs := tinyProgram(t)
	n := p.ExecNodes()
	if len(n) != len(bs) {
		t.Fatalf("%d nodes, want %d", len(n), len(bs))
	}
	for i, b := range bs {
		if b.Index() != int32(i) || n[i].Addr != b.Addr || int(n[i].NInstr) != b.NInstr {
			t.Errorf("node %d does not mirror block %#x", i, b.Addr)
		}
	}
	if n[0].Fall != 1 || n[1].Fall != 2 {
		t.Error("adjacent fall-through not linked")
	}
	if n[0].TargetNode != 2 {
		t.Error("cond target not resolved")
	}
	if n[1].TargetNode != 3 {
		t.Error("call target not resolved")
	}
	if n[3].Fall != -1 || n[2].TargetNode != -1 {
		t.Error("missing successors must be -1")
	}
	if n[0].BrPC() != bs[0].Addr+2*isa.InstrBytes {
		t.Error("branch PC is not the last instruction")
	}
	if got := p.NodeAt(bs[2].Addr); got != 2 {
		t.Errorf("NodeAt = %d, want 2", got)
	}
	if p.NodeAt(bs[2].Addr+4) != -1 || p.NodeAt(0) != -1 || p.NodeAt(bs[3].End()) != -1 {
		t.Error("NodeAt off a block start must return -1")
	}
}

func TestFinalizeKeepsExplicitFallAndLoopMetadata(t *testing.T) {
	// A fall edge across a layout gap cannot come from adjacency; the
	// loop-controlling conditional's metadata must reach its node.
	base := isa.Addr(0x4000)
	b0 := &BasicBlock{Addr: base, NInstr: 2}
	b1 := &BasicBlock{Addr: base + 64, NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}}
	b0.Fall = b1
	b0.Branch = &BranchSite{
		Kind: isa.BrCond, Target: base,
		Loop: LoopBackEdge, TripMean: 7, TakenBias: 0.875,
	}
	p, err := finalizeOne(b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	n := p.ExecNodes()[0]
	if n.Fall != 1 {
		t.Error("explicit fall edge lost")
	}
	if n.Loop != LoopBackEdge || n.TripMean != 7 || n.TakenBias != 0.875 || n.TargetNode != 0 {
		t.Errorf("loop metadata lost: %+v", n)
	}
}

func TestImageMatchesStaticBranches(t *testing.T) {
	p, _ := tinyProgram(t)
	if p.FootprintBytes()%isa.BlockBytes != 0 {
		t.Fatalf("image length %d not block-aligned", p.FootprintBytes())
	}
	// Every static branch must be recoverable by predecoding the image —
	// the invariant Confluence's fill path depends on.
	found := map[isa.Addr]isa.BranchKind{}
	for i := 0; i < p.NumCacheBlocks(); i++ {
		block := p.ImageBase() + isa.Addr(i*isa.BlockBytes)
		for _, pb := range p.PredecodeBlock(block) {
			found[pb.PC(block)] = pb.Kind
		}
	}
	for _, n := range p.ExecNodes() {
		if found[n.BrPC()] != n.BrKind {
			t.Errorf("branch at %#x: predecoded %v, want %v", n.BrPC(), found[n.BrPC()], n.BrKind)
		}
		delete(found, n.BrPC())
	}
	if len(found) != 0 {
		t.Errorf("image contains phantom branches: %v", found)
	}
}

func TestPredecodeBlockDirectTargets(t *testing.T) {
	p, bs := tinyProgram(t)
	n := &p.ExecNodes()[0]
	block := isa.BlockOf(n.BrPC())
	for _, pb := range p.PredecodeBlock(block) {
		if pb.PC(block) == n.BrPC() && pb.Target != bs[0].Branch.Target {
			t.Errorf("predecoded target %#x, want %#x", pb.Target, bs[0].Branch.Target)
		}
	}
}

func TestPredecodeBlockCaches(t *testing.T) {
	p, bs := tinyProgram(t)
	block := isa.BlockOf(bs[0].Addr)
	a := p.PredecodeBlock(block)
	b := p.PredecodeBlock(block)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("PredecodeBlock must cache results")
	}
	if cap(a) != len(a) {
		t.Error("PredecodeBlock must not let appends reach the next block's branches")
	}
}

func TestPredecodeBlockOutOfImage(t *testing.T) {
	p, _ := tinyProgram(t)
	if got := p.PredecodeBlock(0x9999_0000); got != nil {
		t.Errorf("out-of-image block predecoded %d branches", len(got))
	}
	if got := p.PredecodeBlock(p.ImageBase() - isa.BlockBytes); got != nil {
		t.Errorf("block below the image predecoded %d branches", len(got))
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	base := isa.Addr(0x1000)
	b0 := &BasicBlock{Addr: base, NInstr: 4, Branch: &BranchSite{Kind: isa.BrRet}}
	b1 := &BasicBlock{Addr: base + 8, NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}} // overlaps b0
	if _, err := finalizeOne(b0, b1); err == nil {
		t.Error("overlapping blocks: want error")
	}
}

func TestValidateCatchesBadTarget(t *testing.T) {
	b0 := &BasicBlock{Addr: 0x1000, NInstr: 2, Branch: &BranchSite{Kind: isa.BrUncond, Target: 0xdead00}}
	if _, err := finalizeOne(b0); err == nil {
		t.Error("dangling branch target: want error")
	}
}

func TestValidateCatchesMissingFallthrough(t *testing.T) {
	base := isa.Addr(0x1000)
	// Conditional at the end of the program with no fall-through block.
	b0 := &BasicBlock{Addr: base, NInstr: 2, Branch: &BranchSite{Kind: isa.BrCond, Target: base}}
	if _, err := finalizeOne(b0); err == nil {
		t.Error("conditional without fall-through: want error")
	}
}

func TestValidateCatchesDuplicateBlocks(t *testing.T) {
	base := isa.Addr(0x1000)
	b0 := &BasicBlock{Addr: base, NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}}
	b1 := &BasicBlock{Addr: base, NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}}
	if _, err := finalizeOne(b0, b1); err == nil {
		t.Error("duplicate block addresses: want error")
	}
}

func TestFinalizeRejectsSplitFunction(t *testing.T) {
	// Function tables rely on every function occupying one run of nodes.
	base := isa.Addr(0x1000)
	b0 := &BasicBlock{Addr: base, NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}}
	b1 := &BasicBlock{Addr: b0.End(), NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}}
	b2 := &BasicBlock{Addr: b1.End(), NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}}
	f0 := &Function{ID: 0, Blocks: []*BasicBlock{b0, b2}}
	f1 := &Function{ID: 1, Blocks: []*BasicBlock{b1}}
	if _, err := Finalize("", []*Function{f0, f1}); err == nil {
		t.Error("function split around another: want error")
	}
}

func TestIndirectTargetsResolved(t *testing.T) {
	base := isa.Addr(0x2000)
	b0 := &BasicBlock{Addr: base, NInstr: 2}
	b1 := &BasicBlock{Addr: b0.End(), NInstr: 2, Branch: &BranchSite{Kind: isa.BrRet}}
	b2 := &BasicBlock{Addr: b1.End(), NInstr: 3, Branch: &BranchSite{Kind: isa.BrRet}}
	b0.Branch = &BranchSite{Kind: isa.BrIndirect, Targets: []isa.Addr{b1.Addr, b2.Addr}}
	p, err := finalizeOne(b0, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.IndirectTargets(&p.ExecNodes()[0]); !slices.Equal(got, []int32{1, 2}) {
		t.Errorf("indirect targets resolved to nodes %v, want [1 2]", got)
	}
}

func TestIndirectWithoutTargetsFails(t *testing.T) {
	b0 := &BasicBlock{Addr: 0x2000, NInstr: 2, Branch: &BranchSite{Kind: isa.BrIndirect}}
	if _, err := finalizeOne(b0); err == nil {
		t.Error("indirect branch without targets: want error")
	}
}

func TestStaticStats(t *testing.T) {
	p, bs := tinyProgram(t)
	s := p.StaticStats()
	if s.Branches != len(bs) {
		t.Errorf("Branches = %d, want %d", s.Branches, len(bs))
	}
	if s.Blocks != 1 {
		t.Errorf("Blocks = %d, want 1 (44 bytes of code from a 64B boundary)", s.Blocks)
	}
	wantCond := 1.0 / 4.0
	if s.CondFrac != wantCond {
		t.Errorf("CondFrac = %v, want %v", s.CondFrac, wantCond)
	}
	if s.PerBlock <= 0 {
		t.Error("PerBlock must be positive")
	}
}

func TestFootprintAndBlockCount(t *testing.T) {
	p, _ := tinyProgram(t)
	if p.FootprintBytes() <= 0 || p.FootprintBytes()%isa.BlockBytes != 0 {
		t.Errorf("footprint %d", p.FootprintBytes())
	}
	if p.NumCacheBlocks() != p.FootprintBytes()/isa.BlockBytes {
		t.Error("NumCacheBlocks inconsistent with footprint")
	}
}

func TestFunctionEntry(t *testing.T) {
	p, _ := tinyProgram(t)
	want := []Func{{Layer: 0, Entry: 0, First: 0}, {Layer: 1, Entry: 3, First: 3}}
	if !slices.Equal(p.Funcs(), want) {
		t.Errorf("Funcs() = %+v, want %+v", p.Funcs(), want)
	}
	for node, f := range []int{0, 0, 0, 1} {
		if got := p.FuncOf(int32(node)); got != f {
			t.Errorf("FuncOf(%d) = %d, want %d", node, got, f)
		}
	}
}

// TestProgramIsPointerFree pins the finalized form's footprint contract:
// apart from its name, a Program holds only pointer-free data, so a live
// program is never scanned by the garbage collector and retains no
// construction graph.
func TestProgramIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Program{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Name" {
			continue
		}
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if holdsPointers(elem) {
			t.Errorf("Program.%s (%s) holds pointers", f.Name, f.Type)
		}
	}
}

func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
