package confluence

import (
	"runtime"
	"testing"
)

// intraDesigns covers every shared-structure flavor the engine must
// handle: SHIFT's shared history + AirBTB (Confluence), PhantomBTB's
// shared group store, plain FDP (no shared prefetcher state), and the
// SHIFT-over-conventional-BTB point.
var intraDesigns = []DesignPoint{Confluence, PhantomSHIFT, FDP1K, Base1KSHIFT}

// statsEqual fails the test if two results differ in any counter, aggregate
// or per core.
func statsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if *a.Stats != *b.Stats {
		t.Errorf("%s: aggregate stats diverged:\n a %+v\n b %+v", label, *a.Stats, *b.Stats)
	}
	if len(a.PerCore) != len(b.PerCore) {
		t.Fatalf("%s: per-core lengths differ: %d vs %d", label, len(a.PerCore), len(b.PerCore))
	}
	for i := range a.PerCore {
		if *a.PerCore[i] != *b.PerCore[i] {
			t.Errorf("%s: core %d stats diverged", label, i)
		}
	}
}

// TestIntraK1BitIdentity is the worker-count determinism anchor: the
// weave order is the serial round-robin, so however many cores a run
// steps at once — min(GOMAXPROCS, cores) for a lone Run, one at
// GOMAXPROCS 1 — it must be bit-identical to the serial engine, per
// design, homogeneous and consolidated alike. It sets GOMAXPROCS, so it
// does not run in parallel with other tests.
func TestIntraK1BitIdentity(t *testing.T) {
	w, err := BuildWorkload("OLTP-DB2")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := BuildWorkload("Web-Frontend")
	if err != nil {
		t.Fatal(err)
	}
	run := func(dp DesignPoint, mix []*Workload, sp Sampling, procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := Config{Design: dp, Cores: 4, WarmupInstr: 20_000, MeasureInstr: 40_000, Sampling: sp}
		if len(mix) == 1 {
			cfg.Workload = mix[0]
		} else {
			cfg.Mix = mix
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v GOMAXPROCS=%d: %v", dp, procs, err)
		}
		return res
	}
	for _, dp := range intraDesigns {
		serial := run(dp, []*Workload{w}, Sampling{}, 1)
		for _, procs := range []int{2, 8} {
			statsEqual(t, dp.String(), serial, run(dp, []*Workload{w}, Sampling{}, procs))
		}
	}
	// A heterogeneous mix: consolidation shares the history across address
	// spaces and must stay exact too, and sampled, where GOMAXPROCS sets
	// how many cores step fast-forward at once.
	sampled := Sampling{WindowInstr: 2_000, PeriodInstr: 10_000, Windows: 3, WindowWarmupInstr: 1_000}
	for _, sp := range []Sampling{{}, sampled} {
		serialMix := run(Confluence, []*Workload{w, wb}, sp, 1)
		for _, procs := range []int{2, 8} {
			statsEqual(t, "Confluence mix", serialMix, run(Confluence, []*Workload{w, wb}, sp, procs))
		}
	}
}

// TestIntraRaceMix is the -race workout: an 8-core heterogeneous
// consolidation, sampled at GOMAXPROCS 4 so that 4 cores step
// fast-forward chunks concurrently while the generator cores log history
// records for the shared history, runs under the race detector in CI.
func TestIntraRaceMix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	names := []string{"OLTP-DB2", "Web-Frontend", "DSS-Qrys"}
	var mix []*Workload
	for _, n := range names {
		w, err := BuildWorkload(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, w)
	}
	sp := Sampling{WindowInstr: 2_000, PeriodInstr: 10_000, Windows: 4, WindowWarmupInstr: 1_000}
	res, err := Run(Config{
		Mix: mix, Design: Confluence, Cores: 8,
		WarmupInstr: 20_000, MeasureInstr: 40_000,
		Sampling: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions == 0 || res.Stats.IPC() <= 0 || res.Sampled == nil {
		t.Fatal("race mix run produced no sampled work")
	}
	// And PhantomBTB, whose shared group store keeps fast-forward on the
	// serial schedule.
	res2, err := Run(Config{
		Mix: mix, Design: PhantomSHIFT, Cores: 8,
		WarmupInstr: 20_000, MeasureInstr: 40_000, Sampling: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Instructions == 0 {
		t.Fatal("PhantomBTB race run produced no work")
	}
}
