package phantom

import (
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

func taken(pc isa.Addr, target isa.Addr) trace.BranchInfo {
	return trace.BranchInfo{PC: pc, Kind: isa.BrUncond, Taken: true, Target: target}
}

// missAndResolve drives one L1-BTB miss + resolution for bb.
func missAndResolve(p *PhantomBTB, now float64, bb isa.Addr) {
	p.Predict(now, bb, 2, taken(bb+4, bb+0x1000))
}

// lookup predicts a not-taken branch ending the block at bb: the lookup
// alone, since a not-taken branch trains nothing.
func lookup(p *PhantomBTB, now float64, bb isa.Addr) bool {
	hit, _ := p.Predict(now, bb, 2, trace.BranchInfo{PC: bb + 4, Kind: isa.BrCond})
	return hit
}

func TestGroupFormationPacksSixMisses(t *testing.T) {
	store := NewStore(1024)
	p := New("pb", 64, 4, 16, store, 20)
	// Six consecutive misses within one region (128B) form a group.
	base := isa.Addr(0x8000)
	for i := 0; i < GroupEntries; i++ {
		missAndResolve(p, float64(i), base+isa.Addr(i*8))
	}
	if _, ok := store.groups.Lookup(region(base)); !ok {
		t.Fatal("temporal group not stored after six misses")
	}
}

func TestGroupTaggedByFirstMissRegion(t *testing.T) {
	store := NewStore(1024)
	p := New("pb", 64, 4, 16, store, 20)
	first := isa.Addr(0x8000)
	// Misses spanning two regions still tag with the first miss's region.
	for i := 0; i < GroupEntries; i++ {
		missAndResolve(p, float64(i), first+isa.Addr(i*64))
	}
	if _, ok := store.groups.Lookup(region(first)); !ok {
		t.Fatal("group not tagged by first miss")
	}
}

func TestPrefetchFillArrivesAfterLatency(t *testing.T) {
	store := NewStore(1024)
	const lat = 20
	p := New("pb", 4, 1, 16, store, lat)
	base := isa.Addr(0x8000)
	// Build a stored group.
	for i := 0; i < GroupEntries; i++ {
		missAndResolve(p, float64(i), base+isa.Addr(i*8))
	}
	// Fresh PhantomBTB sharing the store: a miss in the region triggers the
	// group fetch.
	q := New("pb2", 4, 1, 16, store, lat)
	now := 100.0
	if lookup(q, now, base) {
		t.Fatal("unexpected hit")
	}
	// Before the fill lands, another entry from the group still misses.
	if lookup(q, now+1, base+8) {
		t.Error("group arrived instantly; latency not modeled")
	}
	// After the latency, group entries hit via the prefetch buffer.
	if !lookup(q, now+lat+1, base+16) {
		t.Error("group entry not available after fill latency")
	}
	if q.GroupHits == 0 {
		t.Error("GroupHits not counted")
	}
}

func TestResolveWithoutMissDoesNotGroup(t *testing.T) {
	store := NewStore(1024)
	p := New("pb", 64, 4, 16, store, 20)
	bb := isa.Addr(0x9000)
	p.Predict(0, bb, 2, taken(bb+4, 0xA000)) // a miss: the entry starts a group
	n := p.cur.n
	if hit, _ := p.Predict(1, bb, 2, taken(bb+4, 0xB000)); !hit { // hit-path resolve
		t.Error("resolved entry not in first level")
	}
	if p.cur.n != n {
		t.Error("a first-level hit joined the temporal group")
	}
}

func TestNotTakenClearsPendingMiss(t *testing.T) {
	store := NewStore(1024)
	p := New("pb", 64, 4, 16, store, 20)
	bb := isa.Addr(0x9000)
	lookup(p, 0, bb) // a miss, resolved not taken
	if p.curValid {
		t.Error("not-taken resolve joined a temporal group")
	}
}

func TestStoreBytes(t *testing.T) {
	s := NewStore(4096)
	if s.Bytes() != 4096*isa.BlockBytes {
		t.Errorf("Bytes = %d", s.Bytes())
	}
}

func TestSharedStoreAcrossCores(t *testing.T) {
	store := NewStore(1024)
	gen := New("gen", 64, 4, 16, store, 10)
	use := New("use", 64, 4, 16, store, 10)
	base := isa.Addr(0xA000)
	for i := 0; i < GroupEntries; i++ {
		missAndResolve(gen, float64(i), base+isa.Addr(i*8))
	}
	// The second core benefits from the first core's groups.
	lookup(use, 50, base)
	if !lookup(use, 100, base+8) {
		t.Error("shared store did not serve the second core")
	}
}
