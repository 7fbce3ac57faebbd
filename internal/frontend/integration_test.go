package frontend

import (
	"testing"

	"confluence/internal/airbtb"
	"confluence/internal/btb"
	"confluence/internal/fdp"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

func TestTwoLevelBubbleAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	cfg.BTB = btb.NewTwoLevel("2L", 1, 1, 64, 4, 3)
	c := NewCore(cfg)
	a := uncondRec(0x1000, 3, 0x2000)
	bb := uncondRec(0x2000, 3, 0x1000)
	step(c, &a) // cold miss: misfetch
	step(c, &bb)
	base := c.Stats().BubbleCycles
	// `a` was evicted from the 1-entry L1-BTB by `b`; re-fetching it hits
	// the L2 and exposes the bubble — the paper's central criticism.
	step(c, &a)
	if got := c.Stats().BubbleCycles - base; got != 3 {
		t.Errorf("L2-BTB bubble = %v cycles, want 3", got)
	}
	// No misfetch though: the L2 supplied the target.
	if c.Stats().BTBMisses != 2 {
		t.Errorf("BTBMisses = %d, want 2 (cold only)", c.Stats().BTBMisses)
	}
}

func TestHistoryRecorderDedupsConsecutive(t *testing.T) {
	var recorded []uint64
	cfg := testConfig()
	cfg.PerfectBTB = true
	cfg.Recorder = recorderFunc(func(b uint64) { recorded = append(recorded, b) })
	c := NewCore(cfg)
	// Three basic blocks in the same 64B cache block: one history record.
	step(c, &trace.Record{Start: 0x1000, N: 3})
	step(c, &trace.Record{Start: 0x100C, N: 3})
	step(c, &trace.Record{Start: 0x1018, N: 3})
	// A different block, then back: two more records (only *consecutive*
	// duplicates collapse at the recorder level).
	step(c, &trace.Record{Start: 0x2000, N: 3})
	step(c, &trace.Record{Start: 0x1000, N: 3})
	want := []uint64{0x1000 >> 6, 0x2000 >> 6, 0x1000 >> 6}
	if len(recorded) != len(want) {
		t.Fatalf("recorded %v, want %v", recorded, want)
	}
	for i := range want {
		if recorded[i] != want[i] {
			t.Fatalf("recorded %v, want %v", recorded, want)
		}
	}
}

type recorderFunc func(uint64)

func (f recorderFunc) Record(b uint64) { f(b) }

func TestAirBTBSyncThroughFrontend(t *testing.T) {
	// Wire a real AirBTB through the frontend's fill/evict hooks using a
	// tiny two-block program image and verify the sync hooks fire.
	cfg := testConfig()
	air := airbtb.New(airbtb.DefaultConfig())
	cfg.BTB = air
	c := NewCore(cfg)
	step(c, &trace.Record{Start: 0x40_0000, N: 3})
	if air.Fills != 1 {
		t.Fatalf("Fills = %d after one block fetch", air.Fills)
	}
	if !air.HasBundle(0x40_0000) {
		t.Fatal("bundle not installed on L1-I fill")
	}
	// No program image wired: the bundle is empty but present (the sync
	// contract is about block identity, not payload).
	if got := c.L1I().Len(); got != air.Resident() {
		t.Errorf("L1-I holds %d blocks, AirBTB %d bundles", got, air.Resident())
	}
}

func TestPredecodePenaltyChargedOnDemandOnly(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	cfg.PredecodePenalty = 2
	c := NewCore(cfg)
	step(c, &trace.Record{Start: 0x1000, N: 3})
	st := c.Stats()
	if st.PredecodeCycles != 2 { // exposure 1
		t.Errorf("PredecodeCycles = %v, want 2", st.PredecodeCycles)
	}
	// Demand stall includes the predecode time.
	if st.L1IStallCycles != 108 { // 106 fill + 2 predecode
		t.Errorf("stall = %v, want 108", st.L1IStallCycles)
	}
}

func TestFDPIntegrationCoversSequentialMisses(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	cfg.Prefetcher = fdp.New(fdp.DefaultConfig())
	c := NewCore(cfg)

	// Walk 64 sequential blocks twice; FDP prefetches each region with its
	// banked lookahead, converting full stalls into partial ones.
	walk := func() {
		for i := 0; i < 64; i++ {
			rec := trace.Record{Start: isa.Addr(0x40_0000 + i*64), N: 16}
			step(c, &rec)
		}
	}
	walk()
	noFDPStall := 64.0 * 106 // what a prefetch-free cold walk would cost
	if got := c.Stats().L1IStallCycles; got >= noFDPStall {
		t.Errorf("FDP saved nothing: stall=%v", got)
	}
	if c.Stats().PrefIssued == 0 || c.Stats().PrefUseful == 0 {
		t.Error("FDP issued/used no prefetches")
	}
}

func TestRedirectResetsFDP(t *testing.T) {
	cfg := testConfig()
	f := fdp.New(fdp.DefaultConfig())
	cfg.Prefetcher = f
	cfg.PerfectL1I = true
	c := NewCore(cfg)
	// A misfetch (BTB-missed taken branch) must reset FDP's run-ahead.
	rec := uncondRec(0x1000, 3, 0x2000)
	step(c, &rec)
	if f.Redirects != 1 {
		t.Errorf("Redirects = %d after misfetch", f.Redirects)
	}
}

func TestScrubDiscardsStalePrefetches(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	stub := &stubPrefetcher{block: 0x9_0000, delay: 0}
	cfg.Prefetcher = stub
	c := NewCore(cfg)
	step(c, &trace.Record{Start: 0x1000, N: 3}) // fires a never-used prefetch
	// Drive enough steps for the periodic scrub to age the entry out.
	for i := 0; i < (1<<14)+8; i++ {
		step(c, &trace.Record{Start: 0x1004, N: 3})
	}
	if c.inflight.Len() != 0 {
		t.Errorf("stale prefetch never scrubbed (len=%d)", c.inflight.Len())
	}
	if c.Stats().PrefDiscarded == 0 {
		t.Error("PrefDiscarded not counted")
	}
}

func TestBTBTakenLookupCounting(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	c := NewCore(cfg)
	step(c, &trace.Record{Start: 0x1000, N: 3,
		Br: trace.BranchInfo{PC: 0x1008, Kind: isa.BrCond, Taken: true, Target: 0x2000}})
	step(c, &trace.Record{Start: 0x3000, N: 3,
		Br: trace.BranchInfo{PC: 0x3008, Kind: isa.BrCond, Taken: false, Target: 0x2000}})
	step(c, &trace.Record{Start: 0x4000, N: 3}) // no branch
	st := c.Stats()
	if st.BTBTakenLookups != 1 {
		t.Errorf("BTBTakenLookups = %d, want 1", st.BTBTakenLookups)
	}
	if st.CondBranches != 2 {
		t.Errorf("CondBranches = %d, want 2", st.CondBranches)
	}
}
