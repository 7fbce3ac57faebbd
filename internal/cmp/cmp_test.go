package cmp

import (
	"testing"

	"confluence/internal/btb"
	"confluence/internal/frontend"
	"confluence/internal/mem"
	"confluence/internal/prefetch"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

func testSystem(t testing.TB, cores int) *System {
	t.Helper()
	return testSystemWith(t, cores, nil)
}

// testSystemWith is testSystem with wire adjusting each core's config
// (after the defaults, before the core is built); nil keeps them.
func testSystemWith(t testing.TB, cores int, wire func(core int, cfg *frontend.Config)) *System {
	t.Helper()
	p := synth.OLTPDB2()
	p.Functions = 320
	p.RequestTypes = 4
	p.Concurrency = 4
	p.Seed = 55
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	hier := mem.New(mem.DefaultConfig(), 0)
	var cs []*frontend.Core
	var es []trace.Source
	for i := 0; i < cores; i++ {
		cfg := frontend.DefaultConfig()
		cfg.CoreID = i
		cfg.BTB = btb.NewConventional("t", 256, 4, 64)
		cfg.Prefetcher = prefetch.Null{}
		cfg.Hier = hier
		cfg.Prog = w.Prog
		if wire != nil {
			wire(i, &cfg)
		}
		cs = append(cs, frontend.NewCore(cfg))
		es = append(es, trace.NewExecutor(w, uint64(i+1)))
	}
	sys, err := New(cs, es, hier)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustRun(t *testing.T, sys *System, warmup, measure uint64) *frontend.Stats {
	t.Helper()
	st, err := sys.Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunReachesInstructionTargets(t *testing.T) {
	sys := testSystem(t, 3)
	st := mustRun(t, sys, 20_000, 50_000)
	// Aggregate measured instructions ≈ cores × measure (over-run bounded
	// by one basic block per core).
	if st.Instructions < 3*50_000 || st.Instructions > 3*50_000+3*64 {
		t.Errorf("measured %d instructions, want ≈ %d", st.Instructions, 3*50_000)
	}
	if st.Cycles <= 0 || st.IPC() <= 0 {
		t.Error("no cycles accumulated")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	cold := testSystem(t, 2)
	coldStats := mustRun(t, cold, 0, 60_000)

	warm := testSystem(t, 2)
	warmStats := mustRun(t, warm, 60_000, 60_000)

	// Warmup must strictly reduce measured L1-I misses (cold-start misses
	// fall outside the measurement window).
	if warmStats.L1IMPKI() >= coldStats.L1IMPKI() {
		t.Errorf("warmup did not help: cold %.1f, warm %.1f MPKI",
			coldStats.L1IMPKI(), warmStats.L1IMPKI())
	}
}

func TestPerCoreStats(t *testing.T) {
	sys := testSystem(t, 2)
	mustRun(t, sys, 1000, 10_000)
	per := sys.PerCoreStats()
	if len(per) != 2 {
		t.Fatalf("PerCoreStats returned %d", len(per))
	}
	var sum uint64
	for _, st := range per {
		if st.Instructions < 10_000 {
			t.Errorf("core measured only %d instructions", st.Instructions)
		}
		sum += st.Instructions
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := mustRun(t, testSystem(t, 2), 10_000, 30_000)
	b := mustRun(t, testSystem(t, 2), 10_000, 30_000)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.BTBMisses != b.BTBMisses {
		t.Errorf("identical systems diverged: %v/%v vs %v/%v",
			a.Cycles, a.BTBMisses, b.Cycles, b.BTBMisses)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	sys := testSystem(t, 2)
	if _, err := New(sys.Cores, sys.Sources[:1], sys.Hier); err == nil {
		t.Error("mismatched cores/executors accepted")
	}
}

func TestZeroPhases(t *testing.T) {
	sys := testSystem(t, 1)
	st := mustRun(t, sys, 0, 0)
	if st.Instructions != 0 {
		t.Errorf("zero-length run measured %d instructions", st.Instructions)
	}
}

// TestRunPropagatesSourceErrors: a finite source exhausting mid-run must
// abort the simulation with an error, not spin or fabricate records.
func TestRunPropagatesSourceErrors(t *testing.T) {
	sys := testSystem(t, 2)
	live := sys.Sources[0]
	short, err := trace.RecordFrom(live, 50)
	if err != nil {
		t.Fatal(err)
	}
	short.Loop = false // exhausts after 50 basic blocks
	if err := short.Reset(); err != nil {
		t.Fatal(err)
	}
	sys.Sources[0] = short
	if _, err := sys.Run(0, 100_000); err == nil {
		t.Fatal("exhausted source did not fail the run")
	}
}

// TestSourcesInterchangeable: replaying a recorded prefix of the executors
// through MemSources yields bit-identical stats to the live run — the
// Source seam does not perturb timing.
func TestSourcesInterchangeable(t *testing.T) {
	live := testSystem(t, 2)
	liveStats := mustRun(t, live, 5_000, 20_000)

	recorded := testSystem(t, 2)
	for i, src := range recorded.Sources {
		m, err := trace.RecordFrom(src, 40_000) // ≥ warmup+measure basic blocks
		if err != nil {
			t.Fatal(err)
		}
		recorded.Sources[i] = m
	}
	recStats := mustRun(t, recorded, 5_000, 20_000)
	if *liveStats != *recStats {
		t.Errorf("recorded replay diverged from live executors:\n live %+v\n rec  %+v", *liveStats, *recStats)
	}
}
