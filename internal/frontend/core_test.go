package frontend

import (
	"math"
	"testing"

	"confluence/internal/btb"
	"confluence/internal/isa"
	"confluence/internal/mem"
	"confluence/internal/noc"
	"confluence/internal/prefetch"
	"confluence/internal/trace"
)

// step processes one executed basic block the way the detailed engine
// does: the stream half, then the timing half.
func step(c *Core, rec *trace.Record) {
	o := c.StreamPredict(rec)
	c.StepPredicted(rec, &o)
}

// testHier builds a single-bank hierarchy with zero network latency so
// LLC hits cost exactly LLCHitCycles and misses add MemCycles.
func testHier() *mem.Hierarchy {
	cfg := mem.Config{
		Banks: 1, LLCBytesPerBank: 512 << 10, LLCWays: 16,
		LLCHitCycles: 6, MemCycles: 100, Mesh: noc.New(1, 1, 0),
	}
	return mem.New(cfg, 0)
}

// testConfig returns a frontend with crisp arithmetic: backend CPI 0,
// exposure 1, 3-wide issue.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BackendCPI = 0
	cfg.Exposure = 1
	cfg.BTB = btb.NewConventional("test", 256, 4, 64)
	cfg.Prefetcher = prefetch.Null{}
	cfg.Hier = testHier()
	return cfg
}

func uncondRec(bb isa.Addr, n int, target isa.Addr) trace.Record {
	return trace.Record{
		Start: bb, N: n,
		Br: trace.BranchInfo{
			PC: bb + isa.Addr((n-1)*isa.InstrBytes), Kind: isa.BrUncond,
			Taken: true, Target: target,
		},
		Next: target,
	}
}

func fallRec(bb isa.Addr, n int) trace.Record {
	return trace.Record{Start: bb, N: n, Next: bb + isa.Addr(n*isa.InstrBytes)}
}

func TestIssueCycleFloor(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	c := NewCore(cfg)
	// A 2-instruction block takes one full cycle (1 region/cycle BPU),
	// a 9-instruction block takes 3 (3-wide issue).
	step(c, &trace.Record{Start: 0x1000, N: 2, Next: 0x1008})
	if c.Stats().Cycles != 1 {
		t.Errorf("2-instr block took %v cycles, want 1", c.Stats().Cycles)
	}
	step(c, &trace.Record{Start: 0x1008, N: 9, Next: 0x102C})
	if got := c.Stats().Cycles; got != 4 {
		t.Errorf("after 9-instr block: %v cycles, want 4", got)
	}
}

func TestBackendCPICharged(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	cfg.BackendCPI = 0.5
	c := NewCore(cfg)
	step(c, &trace.Record{Start: 0x1000, N: 6, Next: 0x1018})
	want := 2.0 + 3.0 // issue 6/3 + backend 6*0.5
	if got := c.Stats().Cycles; got != want {
		t.Errorf("cycles = %v, want %v", got, want)
	}
}

func TestMisfetchPenaltyOnBTBMiss(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	c := NewCore(cfg)
	rec := uncondRec(0x1000, 3, 0x2000)
	step(c, &rec)
	st := c.Stats()
	if st.BTBMisses != 1 {
		t.Fatalf("BTBMisses = %d", st.BTBMisses)
	}
	if st.MisfetchCycles != cfg.MisfetchPenalty {
		t.Errorf("MisfetchCycles = %v", st.MisfetchCycles)
	}
	if st.Cycles != 1+cfg.MisfetchPenalty {
		t.Errorf("Cycles = %v, want %v", st.Cycles, 1+cfg.MisfetchPenalty)
	}
	// The resolve allocated the entry; repeating the block is penalty-free.
	step(c, &rec)
	if st.BTBMisses != 1 || st.Cycles != 2+cfg.MisfetchPenalty {
		t.Errorf("second pass: misses=%d cycles=%v", st.BTBMisses, st.Cycles)
	}
}

func TestCondNotTakenMissIsFree(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	c := NewCore(cfg)
	rec := trace.Record{
		Start: 0x1000, N: 3,
		Br: trace.BranchInfo{PC: 0x1008, Kind: isa.BrCond, Taken: false, Target: 0x2000},
	}
	step(c, &rec)
	st := c.Stats()
	// BTB missed, but the implicit sequential prediction was correct and
	// the hybrid starts weakly-not-taken: no penalties of any kind.
	if st.MisfetchCycles != 0 || st.ResolveCycles != 0 {
		t.Errorf("penalties charged: misfetch=%v resolve=%v", st.MisfetchCycles, st.ResolveCycles)
	}
	if st.BTBMisses != 0 {
		t.Errorf("not-taken branch counted as BTB miss (paper counts taken only)")
	}
	if st.BTBTakenLookups != 0 {
		t.Errorf("BTBTakenLookups = %d", st.BTBTakenLookups)
	}
}

func TestReturnUsesRAS(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	c := NewCore(cfg)
	// call at 0x1008 to 0x2000; return to 0x100C.
	call := trace.Record{Start: 0x1000, N: 3,
		Br: trace.BranchInfo{PC: 0x1008, Kind: isa.BrCall, Taken: true, Target: 0x2000}}
	ret := trace.Record{Start: 0x2000, N: 2,
		Br: trace.BranchInfo{PC: 0x2004, Kind: isa.BrRet, Taken: true, Target: 0x100C}}
	// Warm the BTB for both blocks.
	step(c, &call)
	step(c, &ret)
	before := c.Stats().RASMispredicts
	step(c, &call)
	step(c, &ret)
	if c.Stats().RASMispredicts != before {
		t.Error("matched call/ret mispredicted")
	}
	// A return with no matching call mispredicts.
	step(c, &ret)
	if c.Stats().RASMispredicts == before {
		t.Error("unmatched return predicted correctly")
	}
}

func TestIndirectUsesITC(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	c := NewCore(cfg)
	rec := trace.Record{Start: 0x1000, N: 3,
		Br: trace.BranchInfo{PC: 0x1008, Kind: isa.BrIndirect, Taken: true, Target: 0x3000}}
	step(c, &rec) // cold: BTB miss + ITC miss
	first := c.Stats().ITCMispredicts
	if first == 0 {
		t.Fatal("cold indirect predicted")
	}
	step(c, &rec) // warm: both hit, stable target
	if c.Stats().ITCMispredicts != first {
		t.Error("stable indirect mispredicted when warm")
	}
	rec.Br.Target = 0x4000
	step(c, &rec)
	if c.Stats().ITCMispredicts != first+1 {
		t.Error("target change not counted as ITC mispredict")
	}
}

func TestL1IMissStall(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	c := NewCore(cfg)
	rec := fallRec(0x1000, 3)
	step(c, &rec)
	st := c.Stats()
	// Cold: LLC miss -> 6 + 100 cycles, exposure 1.
	if st.L1IStallCycles != 106 {
		t.Errorf("cold stall = %v, want 106", st.L1IStallCycles)
	}
	if st.L1IMisses != 1 || st.DemandFills != 1 {
		t.Errorf("misses=%d fills=%d", st.L1IMisses, st.DemandFills)
	}
	// Resident now: no further stall.
	step(c, &rec)
	if st.L1IStallCycles != 106 {
		t.Errorf("hit stalled: %v", st.L1IStallCycles)
	}
	// A different block in the LLC costs only the hit latency.
	rec2 := fallRec(0x1040, 3)
	step(c, &rec2) // LLC miss again (cold LLC)
	rec3 := fallRec(0x1080, 3)
	step(c, &rec3)
	c.l1i.Invalidate(uint64(0x1040) >> isa.BlockShift)
	step(c, &rec2) // now an LLC hit: 6 cycles only
	if got := st.L1IStallCycles - 106 - 106 - 106; got != 6 {
		t.Errorf("LLC-hit stall = %v, want 6", got)
	}
}

func TestExposureScalesStalls(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	cfg.Exposure = 0.5
	c := NewCore(cfg)
	rec := fallRec(0x1000, 3)
	step(c, &rec)
	if got := c.Stats().L1IStallCycles; got != 53 {
		t.Errorf("scaled stall = %v, want 53", got)
	}
}

func TestRegionSpanningTwoBlocks(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	c := NewCore(cfg)
	// 6 instructions starting 3 before a block boundary.
	rec := fallRec(0x1034, 6)
	step(c, &rec)
	if got := c.Stats().L1IAccesses; got != 2 {
		t.Errorf("block accesses = %d, want 2", got)
	}
}

// stubPrefetcher issues one fixed request when the region starts.
type stubPrefetcher struct {
	block isa.Addr
	delay float64
	fired bool
}

func (s *stubPrefetcher) Name() string { return "stub" }
func (s *stubPrefetcher) OnAccess(_ float64, _ isa.Addr, _ bool, dst []prefetch.Request) []prefetch.Request {
	return dst
}
func (s *stubPrefetcher) Redirect(float64) {}
func (s *stubPrefetcher) OnRegion(now float64, start isa.Addr, n int, dst []prefetch.Request) []prefetch.Request {
	if s.fired {
		return dst
	}
	s.fired = true
	return append(dst, prefetch.Request{Block: s.block, ExtraDelay: s.delay})
}

func TestPrefetchHidesLatency(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	stub := &stubPrefetcher{block: 0x2000, delay: 0}
	cfg.Prefetcher = stub
	c := NewCore(cfg)

	// Step 1 fires the prefetch for 0x2000 (LLC miss: ready at 106).
	step(c, &trace.Record{Start: 0x1000, N: 3})
	if c.Stats().PrefIssued != 1 {
		t.Fatalf("PrefIssued = %d", c.Stats().PrefIssued)
	}
	stallBefore := c.Stats().L1IStallCycles

	// Burn cycles until the fill completes.
	for c.Cycle() < 110 {
		step(c, &trace.Record{Start: 0x1004, N: 3})
	}
	// Accessing the prefetched block is now free and counted useful.
	step(c, &trace.Record{Start: 0x2000, N: 3})
	st := c.Stats()
	if st.PrefUseful != 1 {
		t.Errorf("PrefUseful = %d", st.PrefUseful)
	}
	if st.L1IStallCycles != stallBefore {
		t.Errorf("prefetched block stalled: %v -> %v", stallBefore, st.L1IStallCycles)
	}
	if st.L1IMisses != 1 { // only the initial 0x1000 miss
		t.Errorf("L1IMisses = %d", st.L1IMisses)
	}
}

func TestLatePrefetchPartialStall(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectBTB = true
	// Extra delay keeps the fill in flight when the demand arrives: the
	// prefetch fires at cycle 0 and completes at 50+106; the first step
	// itself stalls 106 cycles, so the demand at ~107 waits ~49 more.
	stub := &stubPrefetcher{block: 0x2000, delay: 50}
	cfg.Prefetcher = stub
	c := NewCore(cfg)
	step(c, &trace.Record{Start: 0x1000, N: 3})
	st := c.Stats()
	before := st.L1IStallCycles
	step(c, &trace.Record{Start: 0x2000, N: 3})
	resid := st.L1IStallCycles - before
	if resid <= 0 || resid >= 106 {
		t.Errorf("residual stall = %v, want in (0, 106)", resid)
	}
	if st.PrefLate != 1 {
		t.Errorf("PrefLate = %d", st.PrefLate)
	}
}

func TestPenaltyOverlapsStall(t *testing.T) {
	cfg := testConfig()
	c := NewCore(cfg)
	// Cold block AND taken-branch BTB miss in the same step: the 4-cycle
	// misfetch overlaps the 106-cycle fill; total extra is max, not sum.
	rec := uncondRec(0x1000, 3, 0x2000)
	step(c, &rec)
	st := c.Stats()
	if st.Cycles != 1+106 {
		t.Errorf("Cycles = %v, want 107 (misfetch hidden under fill)", st.Cycles)
	}
	if st.MisfetchCycles != 4 || st.L1IStallCycles != 106 {
		t.Errorf("components: misfetch=%v stall=%v", st.MisfetchCycles, st.L1IStallCycles)
	}
}

func TestPerfectFrontendHasNoStalls(t *testing.T) {
	cfg := testConfig()
	cfg.PerfectL1I = true
	cfg.PerfectBTB = true
	cfg.BTB = nil
	c := NewCore(cfg)
	for i := 0; i < 100; i++ {
		rec := uncondRec(isa.Addr(0x1000+i*64), 3, isa.Addr(0x1000+(i+1)*64))
		step(c, &rec)
	}
	st := c.Stats()
	if st.MisfetchCycles != 0 || st.L1IStallCycles != 0 || st.BubbleCycles != 0 {
		t.Errorf("perfect frontend stalled: %+v", st)
	}
	if st.Cycles != 100 {
		t.Errorf("Cycles = %v, want 100", st.Cycles)
	}
}

func TestResetStatsPreservesState(t *testing.T) {
	cfg := testConfig()
	c := NewCore(cfg)
	rec := uncondRec(0x1000, 3, 0x2000)
	step(c, &rec)
	c.ResetStats()
	if c.Stats().Cycles != 0 || c.Stats().Instructions != 0 {
		t.Error("stats not reset")
	}
	// Warm state survives: no new misfetch or L1-I miss.
	step(c, &rec)
	st := c.Stats()
	if st.BTBMisses != 0 || st.L1IMisses != 0 {
		t.Errorf("warm state lost: btb=%d l1i=%d", st.BTBMisses, st.L1IMisses)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Instructions: 10, Cycles: 20, BTBMisses: 1, L1IMisses: 2}
	b := Stats{Instructions: 30, Cycles: 40, BTBMisses: 3, L1IMisses: 4}
	a.Add(&b)
	if a.Instructions != 40 || a.Cycles != 60 || a.BTBMisses != 4 || a.L1IMisses != 6 {
		t.Errorf("Add: %+v", a)
	}
}

func TestDerivedMetrics(t *testing.T) {
	s := Stats{Instructions: 2000, Cycles: 4000, BTBMisses: 10, L1IMisses: 30, DirMispredicts: 4}
	if s.IPC() != 0.5 || s.CPI() != 2 {
		t.Errorf("IPC/CPI wrong")
	}
	if s.BTBMPKI() != 5 || s.L1IMPKI() != 15 || s.DirMPKI() != 2 {
		t.Errorf("MPKIs: %v %v %v", s.BTBMPKI(), s.L1IMPKI(), s.DirMPKI())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.CPI() != 0 || zero.BTBMPKI() != 0 {
		t.Error("zero stats must not divide by zero")
	}
	if math.IsNaN(zero.IPC()) {
		t.Error("NaN from zero stats")
	}
}
