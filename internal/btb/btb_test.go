package btb

import (
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

func takenBranch(pc isa.Addr, kind isa.BranchKind, target isa.Addr) trace.BranchInfo {
	return trace.BranchInfo{PC: pc, Kind: kind, Taken: true, Target: target}
}

// probe predicts a not-taken conditional branch at brPC ending the block
// at bb: the lookup half of Predict alone, since a not-taken branch
// trains nothing.
func probe(d Design, now float64, bb, brPC isa.Addr) (bool, float64) {
	return d.Predict(now, bb, 1, trace.BranchInfo{PC: brPC, Kind: isa.BrCond})
}

// entryOf returns the main-store entry Conventional keeps for the block
// at bb ending at brPC.
func entryOf(c *Conventional, bb, brPC isa.Addr) (Entry, bool) {
	return c.main.Lookup(c.key(bb, brPC))
}

func TestConventionalAllocatesOnTakenOnly(t *testing.T) {
	c := NewConventional("t", 64, 4, 0)
	bb := isa.Addr(0x1000)
	brPC := bb + 8
	// A not-taken branch must not allocate.
	c.Predict(0, bb, 3, trace.BranchInfo{PC: brPC, Kind: isa.BrCond, Taken: false, Target: 0x2000})
	if hit, _ := probe(c, 0, bb, brPC); hit {
		t.Error("not-taken branch allocated an entry")
	}
	if hit, _ := c.Predict(0, bb, 3, takenBranch(brPC, isa.BrCond, 0x2000)); hit {
		t.Error("taken branch hit before it was allocated")
	}
	if hit, _ := probe(c, 0, bb, brPC); !hit {
		t.Fatal("taken branch did not allocate")
	}
	if e, _ := entryOf(c, bb, brPC); e.Target != 0x2000 || e.Kind != isa.BrCond || e.FallN != 3 {
		t.Errorf("entry = %+v", e)
	}
}

func TestConventionalVictimBuffer(t *testing.T) {
	c := NewConventional("t", 1, 1, 4) // 1-entry main + 4-entry victim
	a, b := isa.Addr(0x1000), isa.Addr(0x2000)
	c.Predict(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	c.Predict(0, b, 2, takenBranch(b+4, isa.BrUncond, 0x4000))
	// a was evicted to the victim buffer; looking it up promotes it back.
	if hit, _ := probe(c, 0, a, a+4); !hit {
		t.Fatal("victim buffer did not retain the evicted entry")
	}
	// And b is now the victim.
	if hit, _ := probe(c, 0, b, b+4); !hit {
		t.Fatal("promoted entry displaced b out of reach")
	}
}

func TestConventionalNoVictim(t *testing.T) {
	c := NewConventional("t", 1, 1, 0)
	a, b := isa.Addr(0x1000), isa.Addr(0x2000)
	c.Predict(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	c.Predict(0, b, 2, takenBranch(b+4, isa.BrUncond, 0x4000))
	if hit, _ := probe(c, 0, a, a+4); hit {
		t.Error("entry survived without a victim buffer")
	}
}

func TestConventionalCapacity(t *testing.T) {
	c := NewConventional("t", 256, 4, 64)
	if c.Capacity() != 1024 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
	if c.Name() != "t" {
		t.Error("name lost")
	}
}

func TestEagerInsertsPredecodedBranches(t *testing.T) {
	e := NewEager("eager", 64, 4, 8)
	block := isa.Addr(0x4000)
	branches := []isa.PredecodedBranch{
		{Offset: 2, Kind: isa.BrCond, Target: 0x5000},
		{Offset: 9, Kind: isa.BrCall, Target: 0x6000},
	}
	e.BlockFilled(0, 0, block, branches, true)
	for _, pb := range branches {
		if hit, _ := probe(e, 0, 0, pb.PC(block)); !hit {
			t.Errorf("eager entry for offset %d missing", pb.Offset)
		}
		if got, _ := entryOf(e, 0, pb.PC(block)); got.Target != pb.Target {
			t.Errorf("eager entry for offset %d: %+v", pb.Offset, got)
		}
	}
}

func TestNonEagerIgnoresBlockFills(t *testing.T) {
	c := NewConventional("t", 64, 4, 0)
	block := isa.Addr(0x4000)
	c.BlockFilled(0, 0, block, []isa.PredecodedBranch{{Offset: 2, Kind: isa.BrCond, Target: 0x5000}}, true)
	if hit, _ := probe(c, 0, 0, block+8); hit {
		t.Error("conventional BTB reacted to a block fill")
	}
}

func TestTwoLevelPromotionAndBubble(t *testing.T) {
	tl := NewTwoLevel("2L", 1, 1, 64, 4, 3)
	a, b := isa.Addr(0x1000), isa.Addr(0x2000)
	tl.Predict(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	tl.Predict(0, b, 2, takenBranch(b+4, isa.BrUncond, 0x4000)) // evicts a from L1 into L2
	l2Hits := tl.L2Hits
	hit, bubble := probe(tl, 0, a, a+4)
	if !hit {
		t.Fatal("entry lost from both levels")
	}
	if bubble != 3 {
		t.Errorf("L2 hit bubble = %v, want 3", bubble)
	}
	// The L2 hit promoted a into L1: next lookup is bubble-free.
	if hit, bubble := probe(tl, 0, a, a+4); !hit || bubble != 0 {
		t.Errorf("promotion failed: hit %v bubble %v", hit, bubble)
	}
	if tl.L2Hits != l2Hits+1 {
		t.Errorf("L2Hits = %d, want %d", tl.L2Hits, l2Hits+1)
	}
}

func TestTwoLevelMissBothLevels(t *testing.T) {
	tl := NewTwoLevel("2L", 4, 2, 64, 4, 3)
	if hit, bubble := probe(tl, 0, 0x1000, 0x1004); hit || bubble != 0 {
		t.Errorf("cold lookup: hit %v bubble %v", hit, bubble)
	}
	if tl.L2Misses != 1 {
		t.Errorf("L2Misses = %d", tl.L2Misses)
	}
}

func TestTwoLevelL1HitIsFree(t *testing.T) {
	tl := NewTwoLevel("2L", 4, 2, 64, 4, 3)
	a := isa.Addr(0x1000)
	tl.Predict(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	if hit, bubble := probe(tl, 0, a, a+4); !hit || bubble != 0 {
		t.Errorf("L1 hit: hit %v bubble %v", hit, bubble)
	}
}

func TestEntryFallthroughEncoding(t *testing.T) {
	// Basic blocks are capped at 15 instructions so FallN fits the paper's
	// 4-bit fall-through field.
	c := NewConventional("t", 64, 4, 0)
	bb := isa.Addr(0x1000)
	c.Predict(0, bb, 15, takenBranch(bb+14*4, isa.BrUncond, 0x2000))
	if e, _ := entryOf(c, bb, bb+14*4); e.FallN != 15 {
		t.Errorf("FallN = %d", e.FallN)
	}
}
