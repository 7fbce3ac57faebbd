package experiments

import (
	"context"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/stats"
	"confluence/internal/synth"
)

// The consolidation study goes beyond the paper's homogeneous evaluation:
// every scale-out deployment consolidates heterogeneous services onto one
// CMP, so the headline claim — a single LLC-virtualized SHIFT history
// serving every core — must hold when the cores' control-flow footprints
// compete instead of coincide. The study sweeps 2-, 4-, and 5-workload
// mixes over the history-sharing design points and ablates the shared
// history against per-core private instances, reporting the
// multi-programmed metrics (harmonic-mean IPC, weighted speedup vs running
// alone) alongside the aggregate ones.

// MixRow is one (mix, design, history-configuration) outcome.
type MixRow struct {
	Mix     string
	Design  core.DesignPoint
	Private bool // per-core SHIFT history (ablation); false = the paper's shared history

	IPC      float64 // aggregate IPC across the CMP
	HMeanIPC float64 // harmonic mean of per-core IPCs
	// WeightedSpeedup is the mean of per-core IPC ratios against the same
	// core running its workload homogeneously on the same design (shared
	// history): 1.0 means consolidation cost nothing.
	WeightedSpeedup float64
	BTBMPKI         float64
	L1IMPKI         float64
}

// MixStudyDesigns are the design points the consolidation study covers: the
// paper's contribution plus the two strongest history-virtualizing
// competitors (PhantomBTB's shared group store, and SHIFT on a conventional
// BTB, which isolates the history from AirBTB effects).
func MixStudyDesigns() []core.DesignPoint {
	return []core.DesignPoint{core.Confluence, core.PhantomFDP, core.Base1KSHIFT}
}

// DefaultMixes returns the study's consolidations drawn from the runner's
// suite: a 2-way OLTP+Web mix, a 4-way mix, and the full 5-workload
// consolidation (with smaller suites, whatever prefixes exist). Mixes
// wider than the scale's CMP are omitted — a workload without a core is
// not a consolidation.
func (r *Runner) DefaultMixes() [][]*synth.Workload {
	ws := r.Workloads
	var mixes [][]*synth.Workload
	if len(ws) >= 2 {
		// The most contrasting pair in the paper suite: the largest OLTP
		// footprint against the branchiest web frontend.
		mixes = append(mixes, []*synth.Workload{ws[0], ws[len(ws)-1]})
	}
	if len(ws) >= 4 {
		mixes = append(mixes, ws[:4])
	}
	if len(ws) >= 5 {
		mixes = append(mixes, ws[:5])
	}
	kept := mixes[:0]
	for _, m := range mixes {
		if len(m) <= r.Scale.Cores {
			kept = append(kept, m)
		}
	}
	return kept
}

// mixVariants returns the history configurations studied for a design:
// shared (the paper's), plus the private-per-core ablation where the design
// has a SHIFT history to ablate.
func mixVariants(dp core.DesignPoint) []bool {
	if dp.UsesSHIFT() {
		return []bool{false, true}
	}
	return []bool{false}
}

// MixStudy runs the default consolidation study (DefaultMixes x
// MixStudyDesigns).
func (r *Runner) MixStudy(ctx context.Context) ([]MixRow, error) {
	return r.MixStudyFor(ctx, r.DefaultMixes(), MixStudyDesigns())
}

// MixStudyFor plans every (mix, design, history-variant) cell plus the
// homogeneous baselines the weighted-speedup metric needs, executes them
// across the worker pool, and assembles rows in canonical (mix, design,
// variant) order.
func (r *Runner) MixStudyFor(ctx context.Context, mixes [][]*synth.Workload, designs []core.DesignPoint) ([]MixRow, error) {
	plan := r.NewPlan()
	for _, mix := range mixes {
		for _, dp := range designs {
			for _, priv := range mixVariants(dp) {
				opt := r.options()
				opt.HistoryPerCore = priv
				plan.AddMix(mix, dp, opt)
			}
			for _, w := range mix {
				plan.Add(w, dp, r.options())
			}
		}
	}
	if _, err := plan.Execute(ctx); err != nil {
		return nil, err
	}

	var rows []MixRow
	for _, mix := range mixes {
		for _, dp := range designs {
			// Core i's "alone" IPC is core i of the homogeneous run of its
			// workload on the same design — same tile, same NOC distances.
			alone := make([][]*frontend.Stats, len(mix))
			for j, w := range mix {
				e, err := r.entry(ctx, []*synth.Workload{w}, dp, r.options())
				if err != nil {
					return nil, err
				}
				alone[j] = e.PerCore
			}
			for _, priv := range mixVariants(dp) {
				opt := r.options()
				opt.HistoryPerCore = priv
				e, err := r.entry(ctx, mix, dp, opt)
				if err != nil {
					return nil, err
				}
				agg, per := e.Stats, e.PerCore
				mixIPC := make([]float64, len(per))
				aloneIPC := make([]float64, len(per))
				for i, st := range per {
					mixIPC[i] = st.IPC()
					aloneIPC[i] = alone[i%len(mix)][i].IPC()
				}
				rows = append(rows, MixRow{
					Mix:             MixName(mix),
					Design:          dp,
					Private:         priv,
					IPC:             agg.IPC(),
					HMeanIPC:        stats.HarmonicMean(mixIPC),
					WeightedSpeedup: stats.WeightedSpeedup(mixIPC, aloneIPC),
					BTBMPKI:         agg.BTBMPKI(),
					L1IMPKI:         agg.L1IMPKI(),
				})
			}
		}
	}
	return rows, nil
}

// MixStudyTable formats consolidation-study rows.
func MixStudyTable(rows []MixRow) *stats.Table {
	t := stats.NewTable("Consolidation study: workload mixes vs the shared SHIFT history",
		"Mix", "Design", "History", "IPC", "HMean IPC", "W.Speedup", "BTB MPKI", "L1-I MPKI")
	for _, r := range rows {
		hist := "shared"
		if r.Private {
			hist = "private"
		}
		t.Row(r.Mix, r.Design.String(), hist, r.IPC, r.HMeanIPC, r.WeightedSpeedup, r.BTBMPKI, r.L1IMPKI)
	}
	return t
}
