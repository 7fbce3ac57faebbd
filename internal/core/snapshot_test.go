package core

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"confluence/internal/cache"
)

// snapshotDesigns covers every BTB snapshot form: conventional, two-level
// (plus a shared SHIFT history), phantom (plus the shared group store),
// AirBTB, and the perfect-BTB/perfect-L1I ideal core.
var snapshotDesigns = []DesignPoint{Base1K, TwoLevelSHIFT, PhantomFDP, Confluence, Ideal}

// TestWarmSnapshotResumeBitIdentical is the contract the durable snapshot
// store leans on: a system restored from a warm snapshot must measure
// bit-identically to the system that ran the warm-up live.
func TestWarmSnapshotResumeBitIdentical(t *testing.T) {
	w := testWorkload(t)
	const warm, measure = 60_000, 40_000
	ctx := context.Background()
	for _, dp := range snapshotDesigns {
		t.Run(dp.String(), func(t *testing.T) {
			live, err := NewSystem(w, dp, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := live.FastForward(ctx, warm); err != nil {
				t.Fatal(err)
			}
			snap, err := live.WarmSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := live.RunCtx(ctx, 0, measure)
			if err != nil {
				t.Fatal(err)
			}

			restored, err := NewSystem(w, dp, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreWarmSnapshot(ctx, snap); err != nil {
				t.Fatal(err)
			}
			got, err := restored.RunCtx(ctx, 0, measure)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("restored run diverged: live IPC=%v, restored IPC=%v", want.IPC(), got.IPC())
			}
		})
	}
}

// TestWarmSnapshotSharesAcrossTimingKnobs pins the WarmClass equivalence:
// Base1K and FDP1K differ only in timing machinery that functional
// fast-forward never touches, so their warm snapshots are byte-identical
// and they share one store entry.
func TestWarmSnapshotSharesAcrossTimingKnobs(t *testing.T) {
	w := testWorkload(t)
	ctx := context.Background()
	var blobs [][]byte
	for _, dp := range []DesignPoint{Base1K, FDP1K} {
		sys, err := NewSystem(w, dp, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.FastForward(ctx, 50_000); err != nil {
			t.Fatal(err)
		}
		b, err := sys.WarmSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Error("Base1K and FDP1K warm snapshots differ; they must share a store entry")
	}
	if a, b := Base1K.WarmClass(smallOpts()), FDP1K.WarmClass(smallOpts()); a != b {
		t.Errorf("WarmClass(Base1K)=%q != WarmClass(FDP1K)=%q", a, b)
	}
}

func TestWarmClassDistinctions(t *testing.T) {
	opt := smallOpts()
	// A recording SHIFT history (and its LLC reservation) changes the warm
	// state, so the SHIFT variant of a BTB must not share.
	if Base1K.WarmClass(opt) == Base1KSHIFT.WarmClass(opt) {
		t.Error("Base1K and Base1KSHIFT share a warm class")
	}
	if !strings.HasSuffix(Confluence.WarmClass(opt), "+shift") {
		t.Errorf("Confluence warm class %q lacks +shift", Confluence.WarmClass(opt))
	}
	// Air geometry is warm state; different geometries must not share.
	big := opt
	big.Air.Bundles = 2 * opt.Normalized().Air.Bundles
	if Confluence.WarmClass(opt) == Confluence.WarmClass(big) {
		t.Error("Confluence warm class ignores Air geometry")
	}
	// Sweep entry count is warm state.
	a, b := opt, opt
	a.SweepBTBEntries, b.SweepBTBEntries = 1024, 2048
	if SweepBTB.WarmClass(a) == SweepBTB.WarmClass(b) {
		t.Error("SweepBTB warm class ignores entry count")
	}
}

// TestWarmSnapshotUnsupportedPerCoreHistory: the HistoryPerCore ablation
// wires private histories the system cannot reach, so snapshotting is
// refused rather than silently capturing partial state.
func TestWarmSnapshotUnsupportedPerCoreHistory(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpts()
	opt.HistoryPerCore = true
	sys, err := NewSystem(w, Confluence, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SnapshotSupported() {
		t.Error("SnapshotSupported() = true with per-core histories")
	}
	if _, err := sys.WarmSnapshot(); err == nil {
		t.Error("WarmSnapshot succeeded with per-core histories")
	}
	if err := sys.RestoreWarmSnapshot(context.Background(), nil); err == nil {
		t.Error("RestoreWarmSnapshot succeeded with per-core histories")
	}
}

// TestWarmSnapshotRestoreMismatch: geometry and wiring mixups must fail
// loudly — restore mutates in place, so a partial restore cannot fall
// back to live warm-up.
func TestWarmSnapshotRestoreMismatch(t *testing.T) {
	w := testWorkload(t)
	ctx := context.Background()
	sys, err := NewSystem(w, Base1K, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FastForward(ctx, 20_000); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Wrong core count.
	opt4 := smallOpts()
	opt4.Cores = 4
	wide, err := NewSystem(w, Base1K, opt4)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.RestoreWarmSnapshot(ctx, snap); err == nil {
		t.Error("restore accepted a snapshot with a different core count")
	}

	// Wrong design wiring (Confluence has a shared history and an AirBTB).
	other, err := NewSystem(w, Confluence, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreWarmSnapshot(ctx, snap); err == nil {
		t.Error("restore accepted a snapshot from a different design family")
	}

	// Garbage payload.
	if err := sys.RestoreWarmSnapshot(ctx, []byte("not a snapshot")); err == nil {
		t.Error("restore accepted a corrupt payload")
	}
}

func TestAutoSamplingReExport(t *testing.T) {
	sp := AutoSampling(6_000_000)
	if !sp.Enabled() || sp.Windows < 1 {
		t.Fatalf("AutoSampling(6M) = %+v, want an enabled plan", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if 20*sp.DetailedInstr() > 3*uint64(6_000_000) {
		t.Errorf("detailed budget %d exceeds 15%% of the region", sp.DetailedInstr())
	}
	if AutoSampling(0).Enabled() {
		t.Error("AutoSampling(0) returned an enabled plan")
	}
}

// TestWarmSnapshotAirBTBStepsBitIdentical: a Confluence snapshot taken
// after the L1-Is have churned for a while (bundles displaced, overflow
// entries dropped and refilled) restores every AirBTB bundle into the
// slot its block holds, and the restored system then steps
// bit-identically to the live one: after each of several alternating
// fast-forward and detailed phases, every core's AirBTB state, counters
// and L1-I agree, and so do the measured stats.
func TestWarmSnapshotAirBTBStepsBitIdentical(t *testing.T) {
	w := testWorkload(t)
	ctx := context.Background()
	live, err := NewSystem(w, Confluence, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.FastForward(ctx, 80_000); err != nil {
		t.Fatal(err)
	}
	if live.AirBTBs[0].Evictions == 0 {
		t.Fatal("the warm-up evicted no bundle")
	}
	snap, err := live.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewSystem(w, Confluence, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreWarmSnapshot(ctx, snap); err != nil {
		t.Fatal(err)
	}
	// Counters are not snapshot state; line them up to compare them.
	for i, a := range restored.AirBTBs {
		l := live.AirBTBs[i]
		a.Fills, a.Evictions, a.OverflowInserts, a.OverflowMissedSlots = l.Fills, l.Evictions, l.OverflowInserts, l.OverflowMissedSlots
	}
	for phase := 0; phase < 6; phase++ {
		var want, got any
		if phase%2 == 0 {
			if err := live.FastForward(ctx, 10_000); err != nil {
				t.Fatal(err)
			}
			if err := restored.FastForward(ctx, 10_000); err != nil {
				t.Fatal(err)
			}
		} else {
			if want, err = live.RunCtx(ctx, 0, 10_000); err != nil {
				t.Fatal(err)
			}
			if got, err = restored.RunCtx(ctx, 0, 10_000); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("phase %d: measured stats diverged", phase)
		}
		for i, l := range live.AirBTBs {
			r := restored.AirBTBs[i]
			if !reflect.DeepEqual(l.ExportState(), r.ExportState()) || l.Fills != r.Fills || l.Evictions != r.Evictions ||
				l.OverflowInserts != r.OverflowInserts || l.OverflowMissedSlots != r.OverflowMissedSlots {
				t.Fatalf("phase %d: core %d AirBTB diverged", phase, i)
			}
			if !reflect.DeepEqual(lruOrder(live.Cores[i].L1I()), lruOrder(restored.Cores[i].L1I())) {
				t.Fatalf("phase %d: core %d L1-I diverged", phase, i)
			}
		}
	}
}

// lruOrder renders a cache as each set's slots, their keys, and the
// slots in recency order. Stamp values themselves may differ between a
// live cache and a restored one — restore drops the MRU shortcut, so the
// first repeat of the most recent key re-stamps it — without changing
// any replacement decision.
func lruOrder(c *cache.Cache) [][]uint64 {
	st := c.ExportState()
	var out [][]uint64
	for s := 0; s < st.Sets; s++ {
		base, n := s*st.Ways, int(st.Occ[s])
		slots := make([]int, n)
		for i := range slots {
			slots[i] = base + i
		}
		sort.Slice(slots, func(i, j int) bool { return st.Stamp[slots[i]] < st.Stamp[slots[j]] })
		row := append([]uint64(nil), st.Keys[base:base+n]...)
		for _, sl := range slots {
			row = append(row, uint64(sl))
		}
		out = append(out, row)
	}
	return out
}
