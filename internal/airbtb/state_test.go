package airbtb

import (
	"reflect"
	"testing"

	"confluence/internal/isa"
)

func TestStateRoundTrip(t *testing.T) {
	a := New(DefaultConfig())
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

	fresh := New(DefaultConfig())
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) {
		t.Error("re-exported state differs from the snapshot")
	}
	// Bit-identical future decisions on both copies.
	r1 := a.Lookup(100, base, base+3*4)
	r2 := fresh.Lookup(100, base, base+3*4)
	if r1 != r2 {
		t.Errorf("post-restore lookup diverged: %+v vs %+v", r1, r2)
	}
}

// TestStateRestoreRejectsMalformedOverflow: an overflow snapshot no live
// run leaves — arrays of different lengths, a PC held twice or off an
// instruction boundary, stamps that repeat or run past the clock, or
// entries for a configuration without a buffer — fails restore.
func TestStateRestoreRejectsMalformedOverflow(t *testing.T) {
	a := New(DefaultConfig())
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
		if err := New(DefaultConfig()).RestoreState(st); err == nil {
			t.Errorf("%s: restore succeeded", tc.name)
		}
	}
	noOverflow := Config{Bundles: 512, EntriesPerBundle: 3}
	if err := New(noOverflow).RestoreState(a.ExportState()); err == nil {
		t.Error("overflow entries restored into a configuration without an overflow buffer")
	}
}
