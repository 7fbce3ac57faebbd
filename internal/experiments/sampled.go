package experiments

import (
	"context"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/stats"
	"confluence/internal/store"
)

// SMARTS-style sampled execution over assembled systems: functional
// fast-forward warm-up (optionally restored from a durable snapshot),
// periodic detailed measurement windows, and per-window statistics
// aggregated into mean ± 95% confidence intervals. Execute routes every
// sampled cell through this file, so sampled results are bit-identical no
// matter which layer asked for them.

// SampledReport carries everything a sampled run measured beyond the
// aggregate stats: the plan, per-window aggregates, the mean ± 95% CI
// estimates the windows induce, and the cost accounting against exact
// mode. Instruction counts are per core.
type SampledReport struct {
	Sampling    core.Sampling `json:"sampling"`
	WarmupInstr uint64        `json:"warmup_instr"`
	// DetailedInstructions is the per-core detailed-simulation budget the
	// plan spent (measured windows plus detailed per-window warm-up);
	// FastForwardInstructions what the functional path covered instead.
	// Exact mode would have detailed their sum.
	DetailedInstructions    uint64 `json:"detailed_instructions"`
	FastForwardInstructions uint64 `json:"fast_forward_instructions"`
	// SnapshotReused reports that warm-up state came from the durable
	// store rather than a live fast-forward pass.
	SnapshotReused bool `json:"snapshot_reused"`

	// Windows holds each measurement window's aggregate stats in window
	// order; the run's Stats is their in-order sum.
	Windows []frontend.Stats `json:"windows"`

	// Per-window means with 95% confidence intervals (normal
	// approximation). The point estimates deliberately differ from the
	// aggregate ratios (mean-of-ratios vs ratio-of-sums); the aggregate is
	// the comparable number, the estimate bounds its sampling error.
	IPC     stats.Estimate `json:"ipc"`
	L1IMPKI stats.Estimate `json:"l1i_mpki"`
	BTBMPKI stats.Estimate `json:"btb_mpki"`

	// Coverage is the full-region L1-I/BTB probe accounting (windows,
	// window warm-ups, and fast-forwarded gaps together). When
	// Coverage.Exact — no prefetcher wired, as in the Figure 1 BTB
	// capacity sweep — its MPKI ratios are exact rather than sampled, and
	// BestL1IMPKI/BestBTBMPKI prefer them.
	Coverage *core.Coverage `json:"coverage,omitempty"`
}

// BestL1IMPKI returns the most accurate sampled L1-I MPKI estimate: the
// exact full-coverage ratio when available, else the window aggregate.
func (r *SampledReport) BestL1IMPKI(agg *frontend.Stats) float64 {
	if r.Coverage != nil && r.Coverage.Exact {
		return r.Coverage.L1IMPKI()
	}
	return agg.L1IMPKI()
}

// BestBTBMPKI returns the most accurate sampled BTB MPKI estimate: the
// exact full-coverage ratio when available, else the window aggregate.
func (r *SampledReport) BestBTBMPKI(agg *frontend.Stats) float64 {
	if r.Coverage != nil && r.Coverage.Exact {
		return r.Coverage.BTBMPKI()
	}
	return agg.BTBMPKI()
}

// DetailReduction returns the factor by which detailed simulation
// shrank against exact mode (exact details warm-up plus the whole
// measure region).
func (r *SampledReport) DetailReduction() float64 {
	if r.DetailedInstructions == 0 {
		return 0
	}
	return float64(r.WarmupInstr+r.FastForwardInstructions+r.DetailedInstructions) /
		float64(r.DetailedInstructions)
}

// buildSampledReport derives the estimate columns from the window list.
func buildSampledReport(sp core.Sampling, warmup uint64, reused bool, windows []frontend.Stats, cov *core.Coverage) *SampledReport {
	rep := &SampledReport{
		Sampling:             sp,
		WarmupInstr:          warmup,
		DetailedInstructions: sp.DetailedInstr(),
		SnapshotReused:       reused,
		Windows:              windows,
		Coverage:             cov,
	}
	// Fast-forwarded instructions within the measure region only; the
	// warm-up phase is accounted separately in WarmupInstr so
	// DetailReduction does not count it twice.
	rep.FastForwardInstructions = sp.TotalInstr() - sp.DetailedInstr()
	ipc := make([]float64, len(windows))
	l1i := make([]float64, len(windows))
	btb := make([]float64, len(windows))
	for i := range windows {
		ipc[i] = windows[i].IPC()
		l1i[i] = windows[i].L1IMPKI()
		btb[i] = windows[i].BTBMPKI()
	}
	rep.IPC = stats.NewEstimate(ipc)
	rep.L1IMPKI = stats.NewEstimate(l1i)
	rep.BTBMPKI = stats.NewEstimate(btb)
	return rep
}

// runSampled executes sampled measurement on a freshly assembled
// system: warm-up by snapshot restore when snapStore holds snapKey,
// otherwise by functional fast-forward (capturing and storing the
// snapshot for the next run sharing the key), then windowed measurement
// per sp, which Execute has checked is enabled and valid. Pass a nil
// snapStore or empty snapKey to skip snapshotting. The returned aggregate
// is the in-order sum of window deltas — the sampled estimate of what
// exact mode's measure region would report.
func runSampled(ctx context.Context, sys *core.System, warmup uint64, sp core.Sampling, snapStore *store.Store, snapKey string) (*frontend.Stats, []*frontend.Stats, *SampledReport, error) {
	useSnap := snapStore != nil && snapKey != "" && warmup > 0 && sys.SnapshotSupported()
	reused := false
	if useSnap {
		if payload, hit := snapStore.Get(snapKey); hit {
			// A restore error is fatal, not a miss: restore mutates the
			// system in place, so falling back to live warm-up after a
			// partial restore would measure a chimera.
			if err := sys.RestoreWarmSnapshot(ctx, payload); err != nil {
				return nil, nil, nil, err
			}
			reused = true
		}
	}
	if !reused && warmup > 0 {
		if err := sys.FastForward(ctx, warmup); err != nil {
			return nil, nil, nil, err
		}
		if useSnap {
			if payload, err := sys.WarmSnapshot(); err == nil {
				snapStore.Put(snapKey, payload) // best-effort: warm-up is in hand
			}
		}
	}
	agg, windows, perCore, cov, err := sys.RunSampled(ctx, sp)
	if err != nil {
		return nil, nil, nil, err
	}
	return agg, perCore, buildSampledReport(sp, warmup, reused, windows, cov), nil
}
