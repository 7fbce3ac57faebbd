package synth

import (
	"testing"

	"confluence/internal/isa"
)

// TestImagePredecodeMatchesStaticSites is the invariant Confluence's fill
// path stands on: predecoding the binary image of any block recovers
// exactly the static branch sites laid out there — same offsets, kinds,
// and (for direct branches) targets. It cross-checks the whole generator →
// layout → encoder → predecoder chain.
func TestImagePredecodeMatchesStaticSites(t *testing.T) {
	w := buildTest(t)
	prog := w.Prog

	// Collect static truth per cache block.
	type site struct {
		kind   isa.BranchKind
		target isa.Addr
		direct bool
	}
	want := map[isa.Addr]site{}
	for _, n := range prog.ExecNodes() {
		if n.BrKind == isa.BrNone {
			continue
		}
		want[n.BrPC()] = site{
			kind:   n.BrKind,
			target: n.Target,
			direct: n.BrKind.IsDirect(),
		}
	}

	found := 0
	for i := 0; i < prog.NumCacheBlocks(); i++ {
		block := prog.ImageBase() + isa.Addr(i*isa.BlockBytes)
		for _, pb := range prog.PredecodeBlock(block) {
			pc := pb.PC(block)
			s, ok := want[pc]
			if !ok {
				t.Fatalf("predecoder found a branch at %#x that the CFG does not have", pc)
			}
			if pb.Kind != s.kind {
				t.Fatalf("branch at %#x: predecoded %v, static %v", pc, pb.Kind, s.kind)
			}
			if s.direct && pb.Target != s.target {
				t.Fatalf("branch at %#x: predecoded target %#x, static %#x", pc, pb.Target, s.target)
			}
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("predecoder recovered %d of %d static branches", found, len(want))
	}
}

// TestExecutedPathStaysInImage walks a long trace and checks every fetched
// byte range lies inside the program image (no wild fetch regions).
func TestExecutedPathStaysInImage(t *testing.T) {
	w := buildTest(t)
	base := w.Prog.ImageBase()
	end := base + isa.Addr(w.Prog.FootprintBytes())
	for _, n := range w.Prog.ExecNodes() {
		if n.Addr < base || n.End() > end {
			t.Fatalf("block [%#x,%#x) outside image [%#x,%#x)", n.Addr, n.End(), base, end)
		}
	}
}

// TestDispatcherTablesWithinCluster verifies indirect dispatch tables only
// name callable functions (no dangling dispatch).
func TestDispatcherTablesWithinCluster(t *testing.T) {
	w := buildTest(t)
	p := w.Prog
	for i := range p.ExecNodes() {
		n := &p.ExecNodes()[i]
		if n.BrKind != isa.BrIndCall && n.BrKind != isa.BrIndirect {
			continue
		}
		targets := p.IndirectTargets(n)
		if len(targets) < 2 && n.BrKind == isa.BrIndCall {
			t.Errorf("dispatch at %#x has %d targets", n.BrPC(), len(targets))
		}
		for _, tn := range targets {
			f := p.FuncOf(tn)
			if f < 0 {
				t.Fatalf("dispatch target without function at %#x", n.BrPC())
			}
			if n.BrKind == isa.BrIndCall && p.Funcs()[f].Entry != tn {
				t.Errorf("indirect call at %#x targets mid-function %#x", n.BrPC(), p.ExecNodes()[tn].Addr)
			}
		}
	}
}
