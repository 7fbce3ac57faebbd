package cmp

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"confluence/internal/frontend"
)

func TestJitterOffset(t *testing.T) {
	if got := jitterOffset(0, 3, 100); got != 0 {
		t.Errorf("zero seed: offset = %d, want 0", got)
	}
	if got := jitterOffset(7, 3, 0); got != 0 {
		t.Errorf("zero room: offset = %d, want 0", got)
	}
	var distinct bool
	prev := jitterOffset(7, 0, 1000)
	for w := uint64(0); w < 64; w++ {
		off := jitterOffset(7, w, 1000)
		if off > 1000 {
			t.Fatalf("window %d: offset %d outside [0,1000]", w, off)
		}
		if off != jitterOffset(7, w, 1000) {
			t.Fatalf("window %d: offset not deterministic", w)
		}
		if off != prev {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all 64 window offsets identical; placement is not jittered")
	}
}

func TestRunSampledAggregatesWindows(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t, 2)
	if err := sys.FastForward(ctx, 20_000); err != nil {
		t.Fatal(err)
	}
	sp := Sampling{WindowInstr: 2000, PeriodInstr: 10_000, Windows: 5, WindowWarmupInstr: 500, JitterSeed: 3}
	agg, windows, perCore, cov, err := sys.RunSampled(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != sp.Windows {
		t.Fatalf("got %d windows, want %d", len(windows), sp.Windows)
	}
	var sum frontend.Stats
	for i := range windows {
		sum.Add(&windows[i])
	}
	if !reflect.DeepEqual(&sum, agg) {
		t.Error("aggregate is not the in-order sum of the window aggregates")
	}
	var coreInstr uint64
	for _, pc := range perCore {
		coreInstr += pc.Instructions
	}
	if coreInstr != agg.Instructions {
		t.Errorf("per-core instructions sum to %d, aggregate has %d", coreInstr, agg.Instructions)
	}
	// Measured mass ≈ cores × windows × window (each detailed segment
	// over-runs by at most one basic block per core).
	wantMeasured := uint64(2*sp.Windows) * sp.WindowInstr
	if agg.Instructions < wantMeasured || agg.Instructions > wantMeasured+uint64(2*sp.Windows)*64 {
		t.Errorf("measured %d instructions, want ≈ %d", agg.Instructions, wantMeasured)
	}
	// Coverage spans the whole region: cores × windows × period, again
	// modulo per-segment block over-run.
	wantCov := 2 * sp.TotalInstr()
	if cov.Instructions < wantCov || cov.Instructions > wantCov+8*uint64(2*sp.Windows)*64 {
		t.Errorf("coverage spans %d instructions, want ≈ %d", cov.Instructions, wantCov)
	}
	if !cov.Exact {
		t.Error("prefetcherless system did not report exact coverage")
	}
	if cov.L1IMPKI() <= 0 || cov.BTBMPKI() <= 0 {
		t.Error("coverage MPKI ratios are zero")
	}
}

// TestRunSampledCoverageMatchesExact pins the full-coverage contract at
// system level: with no prefetcher wired, the sampled run's combined
// window+gap probe tallies track a fully detailed run of the same region
// (identically warmed) to well under the headline tolerance.
func TestRunSampledCoverageMatchesExact(t *testing.T) {
	ctx := context.Background()
	const warmup, measure = 20_000, 50_000

	sampled := testSystem(t, 2)
	if err := sampled.FastForward(ctx, warmup); err != nil {
		t.Fatal(err)
	}
	sp := Sampling{WindowInstr: 2000, PeriodInstr: 10_000, Windows: 5, WindowWarmupInstr: 500, JitterSeed: 3}
	if sp.TotalInstr() != measure {
		t.Fatalf("plan covers %d instructions, want %d", sp.TotalInstr(), measure)
	}
	_, _, _, cov, err := sampled.RunSampled(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}

	exact := testSystem(t, 2)
	if err := exact.FastForward(ctx, warmup); err != nil {
		t.Fatal(err)
	}
	st, err := exact.RunCtx(ctx, 0, measure)
	if err != nil {
		t.Fatal(err)
	}

	if relErr := math.Abs(cov.L1IMPKI()-st.L1IMPKI()) / st.L1IMPKI(); relErr > 0.02 {
		t.Errorf("L1-I MPKI: coverage %.3f vs exact %.3f (%.2f%% off)", cov.L1IMPKI(), st.L1IMPKI(), relErr*100)
	}
	if relErr := math.Abs(cov.BTBMPKI()-st.BTBMPKI()) / st.BTBMPKI(); relErr > 0.02 {
		t.Errorf("BTB MPKI: coverage %.3f vs exact %.3f (%.2f%% off)", cov.BTBMPKI(), st.BTBMPKI(), relErr*100)
	}
}

func TestRunSampledRejectsBadPlans(t *testing.T) {
	ctx := context.Background()
	sys := testSystem(t, 1)
	if _, _, _, _, err := sys.RunSampled(ctx, Sampling{}); err == nil {
		t.Error("zero Sampling accepted")
	}
	bad := Sampling{WindowInstr: 5000, PeriodInstr: 1000, Windows: 2}
	if _, _, _, _, err := sys.RunSampled(ctx, bad); err == nil {
		t.Error("period shorter than window accepted")
	}
}

func TestSkipRecordsRepositionsStreams(t *testing.T) {
	ctx := context.Background()
	warmed := testSystem(t, 2)
	if err := warmed.FastForward(ctx, 5_000); err != nil {
		t.Fatal(err)
	}
	counts := warmed.ConsumedRecords()
	if len(counts) != 2 || counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("consumed counts = %v, want two non-zero entries", counts)
	}

	fresh := testSystem(t, 2)
	if err := fresh.SkipRecords(ctx, counts); err != nil {
		t.Fatal(err)
	}
	if got := fresh.ConsumedRecords(); !reflect.DeepEqual(got, counts) {
		t.Errorf("after skip, consumed = %v, want %v", got, counts)
	}

	if err := fresh.SkipRecords(ctx, []uint64{1}); err == nil {
		t.Error("count/core length mismatch accepted")
	}
}

// TestSkipRecordsDryReturnsLowestCore: when two cores run dry the error
// is the lower core's, and the cores before it are repositioned.
func TestSkipRecordsDryReturnsLowestCore(t *testing.T) {
	ctx := context.Background()
	dry := testSystem(t, 4)
	defer dry.Close()
	finiteSources(t, dry, []int{0, 900, 0, 100})
	err := dry.SkipRecords(ctx, []uint64{700, 1000, 300, 1000})
	if want := "cmp: core 1 source: EOF"; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
	if got := dry.ConsumedRecords(); got[0] != 700 {
		t.Errorf("consumed %v, want core 0 at 700", got)
	}

	sys := testSystem(t, 2)
	defer sys.Close()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := sys.SkipRecords(cancelled, []uint64{100, 100}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled skip returned %v, want context.Canceled", err)
	}
}
