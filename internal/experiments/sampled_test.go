package experiments

import (
	"context"
	"reflect"
	"testing"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/store"
	"confluence/internal/synth"
)

// paperWorkloads builds the paper's five profiles at full footprint —
// the regime the auto plan is tuned for.
func paperWorkloads(t *testing.T) []*synth.Workload {
	t.Helper()
	ws := make([]*synth.Workload, 0, 5)
	for _, p := range synth.Profiles() {
		w, err := synth.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestSampledTolerance is the acceptance bound of sampled mode, run at
// the scale the auto plan is tuned for (a fast-forwarded warm-up phase
// of at least half the measure region). On every paper workload:
//
//   - IPC lands within 1% of exact for all three design families —
//     pinned by the jittered window estimates;
//   - L1-I and BTB MPKI land within 1% of exact on the prefetcherless
//     baseline (Base1K) — pinned by the full-coverage probe tallies,
//     which are event-exact there (the residual is ratio-denominator
//     skew, observed ≤0.02%);
//   - every run details at least 10× fewer instructions than exact;
//   - the confidence intervals are non-degenerate.
//
// Window-estimate MPKI on prefetching designs is intentionally NOT
// bounded at 1%: miss events are too rare for that at a ≥10× detail
// reduction (hundreds of events per budget, percent-scale noise floor),
// which is exactly why the full-coverage path exists. Those estimates
// ship with confidence intervals instead.
func TestSampledTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper workload exact and sampled")
	}
	const warmup, measure = 3_200_000, 6_000_000
	sp := core.AutoSampling(measure)
	opt := core.DefaultOptions()
	opt.Cores = 2
	for _, w := range paperWorkloads(t) {
		for _, dp := range []core.DesignPoint{core.Confluence, core.PhantomFDP, core.Base1K} {
			c, err := compareSampled(t.Context(), []*synth.Workload{w}, dp, opt, warmup, measure, sp)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Prof.Name, dp, err)
			}
			if c.IPCErrPct >= 1.0 {
				t.Errorf("%s/%v: IPC error %.3f%% (exact %.4f, sampled %.4f), want <1%%",
					c.Mix, c.Design, c.IPCErrPct, c.Exact.IPC(), c.Sampled.IPC())
			}
			if dp == core.Base1K {
				if cov := c.Report.Coverage; cov == nil || !cov.Exact {
					t.Errorf("%s/%v: prefetcherless design did not get exact coverage: %+v", c.Mix, c.Design, c.Report.Coverage)
				}
				if c.L1IErrPct >= 1.0 {
					t.Errorf("%s/%v: L1-I MPKI error %.3f%% (exact %.3f), want <1%%",
						c.Mix, c.Design, c.L1IErrPct, c.Exact.L1IMPKI())
				}
				if c.BTBErrPct >= 1.0 {
					t.Errorf("%s/%v: BTB MPKI error %.3f%% (exact %.3f), want <1%%",
						c.Mix, c.Design, c.BTBErrPct, c.Exact.BTBMPKI())
				}
			}
			if red := c.Report.DetailReduction(); red < 10 {
				t.Errorf("%s/%v: detail reduction %.1fx, want >=10x", c.Mix, c.Design, red)
			}
			if c.Report.IPC.CI95 <= 0 {
				t.Errorf("%s/%v: degenerate IPC confidence interval: %+v", c.Mix, c.Design, c.Report.IPC)
			}
		}
	}
}

// sampledComparison is one cell run both ways: the exact measurement
// (the golden anchor) against the sampled estimate of the same region,
// with relative errors and the detailed-instruction reduction factor.
type sampledComparison struct {
	Mix    string
	Design string

	Exact   *frontend.Stats
	Sampled *frontend.Stats
	Report  *SampledReport

	IPCErrPct float64
	L1IErrPct float64
	BTBErrPct float64
}

// errPct is the relative error in percent, degrading gracefully at an
// exact value of zero (both zero agree perfectly; otherwise the error is
// unbounded and pinned at 100).
func errPct(sampled, exact float64) float64 {
	if exact == 0 {
		if sampled == 0 {
			return 0
		}
		return 100
	}
	d := (sampled - exact) / exact * 100
	if d < 0 {
		d = -d
	}
	return d
}

// compareSampled runs one (mix, design, options) cell exact and sampled
// on two independently assembled systems and reports the sampling error.
func compareSampled(ctx context.Context, mix []*synth.Workload, dp core.DesignPoint, opt core.Options, warmup, measure uint64, sp core.Sampling) (*sampledComparison, error) {
	cell := CellSpec{Mix: mix, Design: dp, Opt: opt, Warmup: warmup, Measure: measure}
	exact, err := Execute(ctx, cell, 0, nil)
	if err != nil {
		return nil, err
	}
	cell.Sampling = sp
	samp, err := Execute(ctx, cell, 0, nil)
	if err != nil {
		return nil, err
	}
	sampled, rep := samp.Stats, samp.Sampled
	// MPKI errors judge the estimate sampled mode would report: the exact
	// full-coverage ratio for prefetcherless designs, the window aggregate
	// otherwise.
	return &sampledComparison{
		Mix:       MixName(mix),
		Design:    dp.String(),
		Exact:     exact.Stats,
		Sampled:   sampled,
		Report:    rep,
		IPCErrPct: errPct(sampled.IPC(), exact.Stats.IPC()),
		L1IErrPct: errPct(rep.BestL1IMPKI(sampled), exact.Stats.L1IMPKI()),
		BTBErrPct: errPct(rep.BestBTBMPKI(sampled), exact.Stats.BTBMPKI()),
	}, nil
}

// TestSampledDeterministicAcrossWorkers: sampled execution always weaves
// shared state on the exact serial schedule, so the worker count must not
// change a single bit of the result.
func TestSampledDeterministicAcrossWorkers(t *testing.T) {
	w := detWorkload(t)
	sp := core.AutoSampling(150_000)
	run := func(intraWorkers int) any {
		opt := core.DefaultOptions()
		opt.Cores = 2
		sys, err := core.NewMixSystem([]*synth.Workload{w}, core.Confluence, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.SetIntra(intraWorkers)
		agg, perCore, rep, err := runSampled(t.Context(), sys, 80_000, sp, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		return []any{agg, perCore, rep}
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("sampled run diverged between SetIntra(1) and SetIntra(4)")
	}
}

// TestSampledSnapshotReuse: a second sampled run of a cell sharing the
// warm snapshot must report the reuse and measure bit-identically to the
// cold run that captured it.
func TestSampledSnapshotReuse(t *testing.T) {
	w := detWorkload(t)
	mix := []*synth.Workload{w}
	opt := core.DefaultOptions()
	opt.Cores = 2
	const warmup = 80_000
	sp := core.AutoSampling(150_000)
	st := store.Open(t.TempDir())
	key, ok := CellSpec{Mix: mix, Design: core.Confluence, Opt: opt, Warmup: warmup}.WarmKey()
	if !ok {
		t.Fatal("WarmKey not applicable to a plain live cell")
	}

	run := func() ([]any, *SampledReport) {
		sys, err := core.NewMixSystem(mix, core.Confluence, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		agg, perCore, rep, err := runSampled(t.Context(), sys, warmup, sp, st, key)
		if err != nil {
			t.Fatal(err)
		}
		return []any{agg, perCore, rep.Windows}, rep
	}
	cold, coldRep := run()
	if coldRep.SnapshotReused {
		t.Error("cold run claims snapshot reuse")
	}
	warm, warmRep := run()
	if !warmRep.SnapshotReused {
		t.Fatal("second run did not reuse the stored warm snapshot")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("snapshot-restored run diverged from live warm-up run")
	}
}

func TestSnapshotStoreKeyEquivalence(t *testing.T) {
	w := detWorkload(t)
	mix := []*synth.Workload{w}
	opt := core.DefaultOptions()
	opt.Cores = 2
	keyOf := func(warmup uint64, dp core.DesignPoint, o core.Options) string {
		t.Helper()
		k, ok := CellSpec{Mix: mix, Design: dp, Opt: o, Warmup: warmup}.WarmKey()
		if !ok {
			t.Fatalf("WarmKey(%v) not applicable", dp)
		}
		return k
	}

	// Designs differing only in timing machinery share warm snapshots.
	if keyOf(50_000, core.Base1K, opt) != keyOf(50_000, core.FDP1K, opt) {
		t.Error("Base1K and FDP1K warm keys differ; fast-forward state is identical")
	}
	// A recording SHIFT history is warm state.
	if keyOf(50_000, core.Base1K, opt) == keyOf(50_000, core.Base1KSHIFT, opt) {
		t.Error("Base1K and Base1KSHIFT share a warm key")
	}
	// Warm-up length, core count, and history size are all key material.
	if keyOf(50_000, core.Confluence, opt) == keyOf(60_000, core.Confluence, opt) {
		t.Error("warm key ignores warm-up length")
	}
	opt4 := opt
	opt4.Cores = 4
	if keyOf(50_000, core.Confluence, opt) == keyOf(50_000, core.Confluence, opt4) {
		t.Error("warm key ignores core count")
	}
	optH := opt
	optH.Shift.HistoryEntries = 4096
	if keyOf(50_000, core.Confluence, opt) == keyOf(50_000, core.Confluence, optH) {
		t.Error("warm key ignores SHIFT history size")
	}
	// ...but a pure timing knob is not.
	optL := opt
	optL.Shift.Lookahead = 7
	if keyOf(50_000, core.Confluence, opt) != keyOf(50_000, core.Confluence, optL) {
		t.Error("warm key varies with prefetcher lookahead (timing-only)")
	}

	// Inapplicable cells: no warm-up, or per-core private histories.
	if _, ok := (CellSpec{Mix: mix, Design: core.Confluence, Opt: opt}).WarmKey(); ok {
		t.Error("warm key offered for a zero-length warm-up")
	}
	optP := opt
	optP.HistoryPerCore = true
	if _, ok := (CellSpec{Mix: mix, Design: core.Confluence, Opt: optP, Warmup: 50_000}).WarmKey(); ok {
		t.Error("warm key offered for per-core histories")
	}
}

// TestRunnerSampledCells: the grid runner threads its Sampling plan into
// each cell — sampled cells carry a report, memoize separately from exact
// cells, and stay deterministic across repeated lookups.
func TestRunnerSampledCells(t *testing.T) {
	r := tinyRunner(t)
	w := r.Workloads[0]
	exact, err := r.RunCtx(t.Context(), w, core.Confluence, r.options())
	if err != nil {
		t.Fatal(err)
	}

	rs := tinyRunner(t)
	rs.Sampling = core.AutoSampling(rs.Scale.Measure)
	a, err := rs.entry(t.Context(), []*synth.Workload{rs.Workloads[0]}, core.Confluence, rs.options())
	if err != nil {
		t.Fatal(err)
	}
	if a.Sampled == nil {
		t.Fatal("sampled cell returned no report")
	}
	if a.Stats.Instructions >= exact.Instructions {
		t.Errorf("sampled cell measured %d instructions, exact %d", a.Stats.Instructions, exact.Instructions)
	}
	b, err := rs.entry(t.Context(), []*synth.Workload{rs.Workloads[0]}, core.Confluence, rs.options())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) || !reflect.DeepEqual(a.Sampled, b.Sampled) {
		t.Error("memoized sampled cell differs from first run")
	}
}
