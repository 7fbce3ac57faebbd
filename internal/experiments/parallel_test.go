package experiments

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/synth"
)

// detWorkload builds the small-but-thrashing workload used by the
// determinism tests (same shape as tinyRunner's).
func detWorkload(t *testing.T) *synth.Workload {
	t.Helper()
	p := synth.OLTPDB2()
	p.Functions = 1100
	p.RequestTypes = 8
	p.Concurrency = 8
	p.Seed = 12
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// detWorkloadB is a second, genuinely different program for heterogeneous
// mix cells.
func detWorkloadB(t *testing.T) *synth.Workload {
	t.Helper()
	p := synth.WebFrontend()
	p.Functions = 900
	p.RequestTypes = 6
	p.Concurrency = 8
	p.Seed = 34
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var detDesigns = []core.DesignPoint{
	core.Base1K, core.FDP1K, core.TwoLevelSHIFT, core.Confluence, core.Ideal,
}

// TestParallelDeterminism is the scheduler's core contract: every cell of a
// grid must produce bit-identical frontend.Stats whether it ran on one
// worker or eight. Runs under -race in CI, which also exercises the
// singleflight cache and serialized progress for data races.
func TestParallelDeterminism(t *testing.T) {
	sc := Scale{Name: "tiny", Cores: 2, Warmup: 100_000, Measure: 150_000}
	wB := detWorkloadB(t)
	runGrid := func(workers int) []*frontend.Stats {
		r := NewRunnerFor(sc, []*synth.Workload{detWorkload(t)})
		r.Workers = workers
		r.OnProgress = func(ProgressEvent) {} // exercise the serialized callback path
		plan := r.Grid(detDesigns)
		// A non-default-options cell too, so option-keyed memo slots are covered.
		plan.Add(r.Workloads[0], core.SweepBTB, r.sweepOptions(4096))
		// Heterogeneous mix cells: consolidation must be just as
		// worker-count-independent, shared history and private alike.
		mix := []*synth.Workload{r.Workloads[0], wB}
		plan.AddMix(mix, core.Confluence, r.options())
		priv := r.options()
		priv.HistoryPerCore = true
		plan.AddMix(mix, core.Confluence, priv)
		stats, err := plan.Execute(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	serial := runGrid(1)
	got := runGrid(8)
	if len(serial) != len(got) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(got))
	}
	for i := range serial {
		if *serial[i] != *got[i] {
			t.Errorf("cell %d diverged between Workers=1 and Workers=8:\n  %+v\nvs\n  %+v",
				i, *serial[i], *got[i])
		}
	}
}

// TestWorkerBudgetSplit pins the fast-forward bound a Runner cell gets,
// CellShare of the runner's worker count: the default count fills the
// machine with cells, one stepping core each; one worker gives its cell
// every CPU; more workers than CPUs still leave each cell one.
func TestWorkerBudgetSplit(t *testing.T) {
	t.Setenv("REPRO_WORKERS", "")
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name           string
		workers, share int
	}{
		{"default", 0, 1},
		{"one worker", 1, procs},
		{"more workers than CPUs", procs + 1, 1},
	} {
		r := NewRunnerFor(Small, nil)
		r.Workers = c.workers
		if got := CellShare(r.workers()); got != c.share {
			t.Errorf("%s: Workers=%d gives a share of %d, want %d", c.name, c.workers, got, c.share)
		}
	}
}

// TestFigureDeterminismAcrossWorkers pins a full figure pipeline (plan,
// execute, assemble) to worker-count independence, including row order.
func TestFigureDeterminismAcrossWorkers(t *testing.T) {
	sc := Scale{Name: "tiny", Cores: 2, Warmup: 100_000, Measure: 150_000}
	run := func(workers int) []Fig1Row {
		r := NewRunnerFor(sc, []*synth.Workload{detWorkload(t)})
		r.Workers = workers
		rows, err := r.Figure1(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(1), run(8)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Workload != b[i].Workload {
			t.Fatalf("row %d workload order diverged: %q vs %q", i, a[i].Workload, b[i].Workload)
		}
		for j := range a[i].MPKI {
			if a[i].MPKI[j] != b[i].MPKI[j] {
				t.Errorf("row %d col %d: %v vs %v", i, j, a[i].MPKI[j], b[i].MPKI[j])
			}
		}
	}
}

// TestSingleflightSharesOneSimulation hammers one cell key from many
// goroutines: all callers must get the same *Stats pointer (one
// simulation), with no races on the cache.
func TestSingleflightSharesOneSimulation(t *testing.T) {
	r := tinyRunner(t)
	w := r.Workloads[0]
	const callers = 16
	got := make([]*frontend.Stats, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.RunCtx(t.Context(), w, core.Base1K, r.options())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = st
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different result pointer: duplicate simulation", i)
		}
	}
}

func TestPlanDedupesCells(t *testing.T) {
	r := tinyRunner(t)
	w := r.Workloads[0]
	plan := r.NewPlan()
	plan.Add(w, core.Base1K, r.options())
	plan.Add(w, core.Base1K, r.options())
	plan.Add(w, core.Confluence, r.options())
	plan.Add(w, core.SweepBTB, r.sweepOptions(2048))
	plan.Add(w, core.SweepBTB, r.sweepOptions(2048))
	plan.Add(w, core.SweepBTB, r.sweepOptions(4096))
	if plan.Len() != 4 {
		t.Errorf("plan has %d cells, want 4 after dedupe", plan.Len())
	}
}

func TestPlanExecuteCancelled(t *testing.T) {
	r := tinyRunner(t)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := r.Grid(detDesigns).Execute(ctx); err == nil {
		t.Error("cancelled plan executed without error")
	}
	// The runner stays usable: a fresh context must succeed (failed cells
	// were evicted, not poisoned).
	if _, err := r.RunCtx(t.Context(), r.Workloads[0], core.Base1K, r.options()); err != nil {
		t.Errorf("runner poisoned after cancellation: %v", err)
	}
}

func TestProgressSerializedUnderConcurrency(t *testing.T) {
	r := tinyRunner(t)
	r.Workers = 8
	var mu sync.Mutex
	var lines int
	r.OnProgress = func(ProgressEvent) {
		// The callback contract says calls are serialized; the mutex makes
		// any violation visible to the race detector as well.
		mu.Lock()
		lines++
		mu.Unlock()
	}
	if _, err := r.Grid(detDesigns[:3]).Execute(t.Context()); err != nil {
		t.Fatal(err)
	}
	if lines != 3 {
		t.Errorf("progress reported %d lines, want 3", lines)
	}
}

// TestCancellationDoesNotPoisonOtherCallers pins the reviewer-facing
// singleflight contract: one caller's cancellation must never surface as
// an error to a caller whose own context is live, whatever the
// interleaving (waiter retries the evicted key; fresh callers re-simulate).
func TestCancellationDoesNotPoisonOtherCallers(t *testing.T) {
	r := tinyRunner(t)
	w := r.Workloads[0]

	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Leader racing with a dead context: fails with ctx.Err and evicts.
		_, _ = r.RunCtx(cancelled, w, core.Base1K, r.options())
	}()
	go func() {
		defer wg.Done()
		// Live caller on the same key: must always succeed, whether it
		// became leader itself, waited out the cancelled leader and
		// retried, or found a clean cache entry.
		if _, err := r.RunCtx(t.Context(), w, core.Base1K, r.options()); err != nil {
			t.Errorf("live caller inherited cancellation: %v", err)
		}
	}()
	wg.Wait()

	if _, err := r.RunCtx(t.Context(), w, core.Base1K, r.options()); err != nil {
		t.Errorf("runner poisoned after cancellation: %v", err)
	}
}
