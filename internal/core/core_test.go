package core

import (
	"math"
	"sync"
	"testing"

	"confluence/internal/frontend"
	"confluence/internal/isa"
	"confluence/internal/synth"
)

var (
	sharedTestWorkload     *synth.Workload
	sharedTestWorkloadErr  error
	sharedTestWorkloadOnce sync.Once
)

// testWorkload returns a shared workload big enough to pressure a 32KB
// L1-I and a 1K-entry BTB — the regime where the design points separate.
func testWorkload(t testing.TB) *synth.Workload {
	t.Helper()
	sharedTestWorkloadOnce.Do(func() {
		p := synth.OLTPDB2()
		p.Functions = 1100
		p.RequestTypes = 8
		p.Concurrency = 8
		p.Seed = 31
		sharedTestWorkload, sharedTestWorkloadErr = synth.Build(p)
	})
	if sharedTestWorkloadErr != nil {
		t.Fatal(sharedTestWorkloadErr)
	}
	return sharedTestWorkload
}

func mustRun(t *testing.T, sys *System, warmup, measure uint64) *frontend.Stats {
	t.Helper()
	st, err := sys.Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func smallOpts() Options {
	opt := DefaultOptions()
	opt.Cores = 2
	return opt
}

// allDesigns lists every constructible design point (SweepBTB needs an
// entry count and is exercised separately).
var allDesigns = []DesignPoint{
	Base1K, FDP1K, PhantomFDP, TwoLevelFDP, TwoLevelSHIFT,
	Base1KSHIFT, PhantomSHIFT, Confluence, IdealBTBSHIFT, Ideal,
	AirCapacity, AirSpatial, AirPrefetch,
}

func TestNewSystemAllDesignPoints(t *testing.T) {
	w := testWorkload(t)
	for _, dp := range allDesigns {
		sys, err := NewSystem(w, dp, smallOpts())
		if err != nil {
			t.Fatalf("%v: %v", dp, err)
		}
		st := mustRun(t, sys, 5_000, 20_000)
		if st.Instructions < 2*20_000 {
			t.Errorf("%v: measured %d instructions", dp, st.Instructions)
		}
		if st.IPC() <= 0 || st.IPC() > 3 {
			t.Errorf("%v: IPC = %v", dp, st.IPC())
		}
	}
}

func TestSweepBTBRequiresEntries(t *testing.T) {
	w := testWorkload(t)
	if _, err := NewSystem(w, SweepBTB, smallOpts()); err == nil {
		t.Error("SweepBTB without entries accepted")
	}
	opt := smallOpts()
	opt.SweepBTBEntries = 2048
	if _, err := NewSystem(w, SweepBTB, opt); err != nil {
		t.Errorf("SweepBTB with entries: %v", err)
	}
}

func TestDesignPredicatesAndNames(t *testing.T) {
	if !Confluence.UsesSHIFT() || !TwoLevelSHIFT.UsesSHIFT() || Base1K.UsesSHIFT() {
		t.Error("UsesSHIFT wrong")
	}
	if !FDP1K.UsesFDP() || Confluence.UsesFDP() {
		t.Error("UsesFDP wrong")
	}
	if Confluence.String() != "Confluence" || Base1K.String() != "Base1K" {
		t.Error("names wrong")
	}
	if DesignPoint(99).String() == "" {
		t.Error("unknown design point has empty name")
	}
}

func TestAreaOverheadsMatchPaper(t *testing.T) {
	w := testWorkload(t)
	area := func(dp DesignPoint) float64 {
		sys, err := NewSystem(w, dp, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		return sys.RelativeArea
	}
	// Confluence: ~1% per-core overhead (paper's headline).
	if got := area(Confluence); got < 1.004 || got > 1.02 {
		t.Errorf("Confluence relative area = %.4f, paper says ~1.01", got)
	}
	// 2LevelBTB+SHIFT: ~8% (paper Fig 6).
	if got := area(TwoLevelSHIFT); got < 1.06 || got > 1.10 {
		t.Errorf("2LevelBTB+SHIFT relative area = %.4f, paper says ~1.08", got)
	}
	// The no-extra-hardware points sit at 1.0.
	for _, dp := range []DesignPoint{Base1K, FDP1K, PhantomFDP, Ideal} {
		if got := area(dp); math.Abs(got-1) > 1e-9 {
			t.Errorf("%v relative area = %v, want 1.0", dp, got)
		}
	}
	// Ordering: Confluence adds less silicon than the two-level designs.
	if area(Confluence) >= area(TwoLevelFDP) {
		t.Error("Confluence should be cheaper than a 16K-entry L2 BTB")
	}
}

func TestSHIFTReservesLLCCapacity(t *testing.T) {
	w := testWorkload(t)
	with, err := NewSystem(w, Confluence, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewSystem(w, Base1K, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if with.Hier.ReservedBlocks() == 0 {
		t.Error("SHIFT history reserved no LLC blocks")
	}
	if without.Hier.ReservedBlocks() != 0 {
		t.Error("baseline reserved LLC blocks")
	}
}

func TestPhantomReservesMore(t *testing.T) {
	w := testWorkload(t)
	ph, _ := NewSystem(w, PhantomSHIFT, smallOpts())
	sh, _ := NewSystem(w, Base1KSHIFT, smallOpts())
	if ph.Hier.ReservedBlocks() <= sh.Hier.ReservedBlocks() {
		t.Error("PhantomBTB's virtualized groups reserve no extra LLC space")
	}
	if ph.PhantomStore == nil {
		t.Error("phantom store not exposed")
	}
}

// TestAirBTBSyncInvariant is the core synchronization property (paper
// §3.2): after any amount of execution, every core's AirBTB holds a bundle
// exactly for the blocks resident in its L1-I.
func TestAirBTBSyncInvariant(t *testing.T) {
	w := testWorkload(t)
	sys, err := NewSystem(w, Confluence, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sys, 10_000, 100_000)
	for i, c := range sys.Cores {
		air := sys.AirBTBs[i]
		l1Blocks := c.L1I().Keys(nil)
		if len(l1Blocks) != air.Resident() {
			t.Fatalf("core %d: %d L1-I blocks vs %d bundles", i, len(l1Blocks), air.Resident())
		}
		for _, key := range l1Blocks {
			if !air.HasBundle(isa.Addr(key) << isa.BlockShift) {
				t.Fatalf("core %d: L1-I block %#x has no bundle", i, key<<isa.BlockShift)
			}
		}
	}
}

func TestSharedHistoryIsShared(t *testing.T) {
	w := testWorkload(t)
	sys, err := NewSystem(w, Confluence, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sys, 0, 50_000)
	if sys.History == nil || sys.History.Records == 0 {
		t.Fatal("shared history not recording")
	}
}

func TestPrivateHistoryOption(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpts()
	opt.HistoryPerCore = true
	sys, err := NewSystem(w, Confluence, opt)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sys, 0, 30_000)
	if sys.History == nil || sys.History.Records == 0 {
		t.Error("private history (core 0) not recording")
	}
}

func TestConfluenceBeatsBaseline(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpts()
	base, _ := NewSystem(w, Base1K, opt)
	conf, _ := NewSystem(w, Confluence, opt)
	bs := mustRun(t, base, 100_000, 200_000)
	cs := mustRun(t, conf, 100_000, 200_000)
	if cs.IPC() <= bs.IPC() {
		t.Errorf("Confluence (%.3f) did not beat baseline (%.3f)", cs.IPC(), bs.IPC())
	}
	if cs.BTBMPKI() >= bs.BTBMPKI() {
		t.Errorf("Confluence BTB MPKI %.1f not below baseline %.1f", cs.BTBMPKI(), bs.BTBMPKI())
	}
}

func TestIdealIsBest(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpts()
	ideal, _ := NewSystem(w, Ideal, opt)
	is := mustRun(t, ideal, 50_000, 100_000)
	for _, dp := range []DesignPoint{Base1K, TwoLevelSHIFT, Confluence} {
		sys, _ := NewSystem(w, dp, opt)
		st := mustRun(t, sys, 50_000, 100_000)
		if st.IPC() > is.IPC()*1.001 {
			t.Errorf("%v (%.3f) beat Ideal (%.3f)", dp, st.IPC(), is.IPC())
		}
	}
}

func TestZeroCoresRejected(t *testing.T) {
	w := testWorkload(t)
	if _, err := NewSystem(w, Base1K, Options{}); err == nil {
		t.Error("zero cores accepted")
	}
}

// testWorkloadB builds a second, distinct program for mix tests.
func testWorkloadB(t *testing.T) *synth.Workload {
	t.Helper()
	p := synth.WebFrontend()
	p.Functions = 900
	p.RequestTypes = 6
	p.Concurrency = 8
	p.Seed = 77
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestNewMixSystem covers consolidated assembly: per-core workload
// identity (calibration, program image, sources) and the validation
// contract.
func TestNewMixSystem(t *testing.T) {
	a, b := testWorkload(t), testWorkloadB(t)
	opt := DefaultOptions()
	opt.Cores = 4
	sys, err := NewMixSystem([]*synth.Workload{a, b}, Confluence, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Workload != a || len(sys.Workloads) != 2 {
		t.Errorf("workload bookkeeping: first=%v n=%d", sys.Workload.Prof.Name, len(sys.Workloads))
	}
	st := mustRun(t, sys, 50_000, 100_000)
	if st.Instructions == 0 {
		t.Fatal("mixed system executed nothing")
	}
	per := sys.PerCoreSnapshot()
	if len(per) != 4 {
		t.Fatalf("%d per-core stats", len(per))
	}
	// Cores 0 and 2 ran workload a, cores 1 and 3 ran b: the profiles
	// differ (branch mix, backend CPI), so slot stats must differ while
	// same-slot cores stay plausibly close.
	if per[0].CondBranches == per[1].CondBranches {
		t.Error("distinct workloads produced identical branch populations")
	}
	var sum frontend.Stats
	for _, p := range per {
		sum.Add(p)
	}
	if sum != *st {
		t.Error("per-core snapshots do not sum to the aggregate")
	}

	// Validation.
	if _, err := NewMixSystem(nil, Confluence, opt); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewMixSystem([]*synth.Workload{a, nil}, Confluence, opt); err == nil {
		t.Error("nil mix entry accepted")
	}
}

// TestMixSharedHistoryHasGeneratorPerWorkload pins the generator policy:
// consolidating two workloads under a shared history must record both
// control-flow streams (each distinct workload's first core generates),
// while N references to one workload keep the paper's single generator.
func TestMixSharedHistoryHasGeneratorPerWorkload(t *testing.T) {
	a, b := testWorkload(t), testWorkloadB(t)
	opt := DefaultOptions()
	opt.Cores = 4

	het, err := NewMixSystem([]*synth.Workload{a, b}, Confluence, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer het.Close()
	mustRun(t, het, 20_000, 20_000)
	// Both tags must appear in the shared history buffer.
	tags := map[uint64]bool{}
	for pos := 0; pos < het.History.Len(); pos++ {
		blk, _, ok := het.History.Next(pos - 1)
		if !ok {
			break
		}
		tags[blk>>(isa.ASIDShift-isa.BlockShift)] = true
	}
	if !tags[0] || !tags[1] {
		t.Errorf("shared history holds tags %v, want both slot 0 and slot 1", tags)
	}

	homog, err := NewMixSystem([]*synth.Workload{a, a}, Confluence, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer homog.Close()
	mustRun(t, homog, 20_000, 20_000)
	for pos := 0; pos < homog.History.Len(); pos++ {
		blk, _, ok := homog.History.Next(pos - 1)
		if !ok {
			break
		}
		if blk>>(isa.ASIDShift-isa.BlockShift) != 0 {
			t.Fatalf("repeated-reference mix recorded a tagged block %#x", blk)
		}
	}
}
