package airbtb

import (
	"reflect"
	"testing"

	"confluence/internal/cache"
	"confluence/internal/isa"
)

func TestStateRoundTrip(t *testing.T) {
	a, l1 := newBound(DefaultConfig())
	base := isa.Addr(0x4000)
	for i := 0; i < 32; i++ {
		block := base + isa.Addr(i)*isa.BlockBytes
		// Overfill the bundle so entries spill into the overflow buffer.
		var brs []isa.PredecodedBranch
		for o := uint8(0); o < 6; o++ {
			brs = append(brs, isa.PredecodedBranch{Offset: o, Kind: isa.BrCond, Target: block + 0x1000})
		}
		fillBlock(a, block, brs...)
	}
	st := a.ExportState()
	if len(st.OverflowPCs) == 0 {
		t.Fatal("training produced no overflow entries")
	}

	// Restore the L1-I first: bundles take their owners from it.
	fresh, freshL1 := newBound(DefaultConfig())
	if err := freshL1.RestoreState(l1.ExportState()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) || !reflect.DeepEqual(fresh.owner, a.owner) {
		t.Error("re-exported state differs from the snapshot")
	}
	// Bit-identical future decisions on both copies.
	for _, pc := range []isa.Addr{base + 3*4, base + 4*4, base + 5*isa.BlockBytes} {
		if h1, h2 := lookup(a, pc), lookup(fresh, pc); h1 != h2 {
			t.Errorf("post-restore lookup of %#x diverged: %v vs %v", pc, h1, h2)
		}
	}
	if !reflect.DeepEqual(fresh.ExportState(), a.ExportState()) {
		t.Error("post-restore lookups left different states")
	}
}

// TestStateRestoreRejectsMalformedOverflow: an overflow snapshot no live
// run leaves — arrays of different lengths, a PC held twice or off an
// instruction boundary, stamps that repeat or run past the clock, or
// entries for a configuration without a buffer — fails restore.
func TestStateRestoreRejectsMalformedOverflow(t *testing.T) {
	a, l1 := newBound(DefaultConfig())
	var brs []isa.PredecodedBranch
	for o := uint8(0); o < 6; o++ {
		brs = append(brs, isa.PredecodedBranch{Offset: o, Kind: isa.BrCond, Target: 0x5000})
	}
	fillBlock(a, 0x4000, brs...)
	if n := len(a.ExportState().OverflowPCs); n < 2 {
		t.Fatalf("training left %d overflow entries, want at least 2", n)
	}
	for _, tc := range []struct {
		name string
		edit func(*State)
	}{
		{"mismatched arrays", func(st *State) { st.OverflowEnts = append(st.OverflowEnts, Entry{}) }},
		{"duplicate PC", func(st *State) { st.OverflowPCs[1] = st.OverflowPCs[0] }},
		{"unaligned PC", func(st *State) { st.OverflowPCs[0]++ }},
		{"duplicate stamp", func(st *State) { st.OverflowStamp[1] = st.OverflowStamp[0] }},
		{"stamp past clock", func(st *State) { st.OverflowClock = 0 }},
	} {
		st := a.ExportState()
		tc.edit(&st)
		if err := restored(t, DefaultConfig(), l1).RestoreState(st); err == nil {
			t.Errorf("%s: restore succeeded", tc.name)
		}
	}
	noOverflow := Config{Bundles: 512, EntriesPerBundle: 3}
	if err := restored(t, noOverflow, l1).RestoreState(a.ExportState()); err == nil {
		t.Error("overflow entries restored into a configuration without an overflow buffer")
	}
}

// TestStateRestoreRejectsMalformedBundles: bundle masks no fill writes —
// the wrong count, a mask in a slot the L1-I leaves empty, a bundle
// holding a branch other than its block's first EntriesPerBundle, or a
// held branch the bitmap lacks — fail restore.
func TestStateRestoreRejectsMalformedBundles(t *testing.T) {
	a, l1 := newBound(DefaultConfig())
	fillBlock(a, 0x4000,
		isa.PredecodedBranch{Offset: 1, Kind: isa.BrCond},
		isa.PredecodedBranch{Offset: 5, Kind: isa.BrCond},
		isa.PredecodedBranch{Offset: 9, Kind: isa.BrCond},
		isa.PredecodedBranch{Offset: 12, Kind: isa.BrCond},
	)
	slot, _ := l1.Find(0x4000 >> isa.BlockShift)
	if err := restored(t, DefaultConfig(), l1).RestoreState(a.ExportState()); err != nil {
		t.Fatalf("a live state failed restore: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*State)
	}{
		{"short", func(st *State) { st.Masks = st.Masks[1:] }},
		{"mask in an empty slot", func(st *State) { st.Masks[(slot+1)%len(st.Masks)] = 1 }},
		{"holds the fourth branch", func(st *State) { st.Masks[slot] ^= (1<<9 | 1<<12) << 16 }},
		{"holds a branch the bitmap lacks", func(st *State) { st.Masks[slot] |= 1 << 20 }},
	} {
		st := a.ExportState()
		tc.edit(&st)
		if err := restored(t, DefaultConfig(), l1).RestoreState(st); err == nil {
			t.Errorf("%s: restore succeeded", tc.name)
		}
	}
}

// restored returns a fresh AirBTB of cfg bound to a fresh L1-I holding
// l1's restored contents, ready for RestoreState.
func restored(t *testing.T, cfg Config, l1 *cache.Cache) *AirBTB {
	t.Helper()
	a, fresh := newBound(cfg)
	if err := fresh.RestoreState(l1.ExportState()); err != nil {
		t.Fatal(err)
	}
	return a
}
