package experiments

import (
	"context"
	"fmt"

	"confluence/internal/core"
	"confluence/internal/parallel"
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

// MixStudyFor runs a consolidation study: it lists the study's cells
// (MixStudySpec.Cells) at the runner's scale and sampling plan, executes
// them across the worker pool into the memo, and assembles the rows.
func (r *Runner) MixStudyFor(ctx context.Context, mixes [][]*synth.Workload, designs []core.DesignPoint) ([]MixRow, error) {
	study := MixStudySpec{Base: r.cell(nil, 0, r.options()), Mixes: mixes, Designs: designs}
	cells := study.Cells()
	entries := make([]StoreEntry, len(cells))
	err := parallel.ForEach(ctx, r.workers(), len(cells), func(ctx context.Context, i int) (err error) {
		entries[i], err = r.entry(ctx, cells[i].Mix, cells[i].Design, cells[i].Opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return study.Rows(entries)
}

// MixStudySpec is a consolidation study: every mix on every design, in
// each of the design's history variants, plus the homogeneous baselines
// the weighted-speedup metric needs. Base supplies the rest of every
// cell (instruction counts, sampling plan, options); its own Mix, Design
// and Opt.HistoryPerCore are ignored. The Runner and the serving layer
// both run a study through Cells and Rows, so a study's cells have one
// identity whichever path runs them.
type MixStudySpec struct {
	Base    CellSpec
	Mixes   [][]*synth.Workload
	Designs []core.DesignPoint
}

// cell is the study's cell for mix on dp with a shared or private history.
func (s MixStudySpec) cell(mix []*synth.Workload, dp core.DesignPoint, private bool) CellSpec {
	c := s.Base
	c.Mix, c.Design = mix, dp
	c.Opt.HistoryPerCore = private
	return c
}

// Cells lists the study's cells: per mix and design, each history variant
// of the mix, then each mix workload's homogeneous baseline (shared
// history), deduplicated by CellSpec.Key in that order (a cell with no
// key is always listed).
func (s MixStudySpec) Cells() []CellSpec {
	var cells []CellSpec
	seen := make(map[string]bool)
	add := func(c CellSpec) {
		if key, ok := c.Key(); ok {
			if seen[key] {
				return
			}
			seen[key] = true
		}
		cells = append(cells, c)
	}
	for _, mix := range s.Mixes {
		for _, dp := range s.Designs {
			for _, priv := range mixVariants(dp) {
				add(s.cell(mix, dp, priv))
			}
			for _, w := range mix {
				add(s.cell([]*synth.Workload{w}, dp, false))
			}
		}
	}
	return cells
}

// Rows assembles the study's rows in canonical (mix, design, variant)
// order from its cells' entries, parallel to Cells. A study with a cell
// that has no key or no entry cannot be assembled.
func (s MixStudySpec) Rows(entries []StoreEntry) ([]MixRow, error) {
	cells := s.Cells()
	byKey := make(map[string]StoreEntry, len(cells))
	for i, c := range cells {
		key, ok := c.Key()
		if !ok || i >= len(entries) {
			return nil, fmt.Errorf("experiments: mix study cell %s/%s has no key or no entry", MixName(c.Mix), c.Design)
		}
		byKey[key] = entries[i]
	}
	entry := func(mix []*synth.Workload, dp core.DesignPoint, private bool) StoreEntry {
		key, _ := s.cell(mix, dp, private).Key()
		return byKey[key]
	}
	var rows []MixRow
	for _, mix := range s.Mixes {
		for _, dp := range s.Designs {
			for _, priv := range mixVariants(dp) {
				e := entry(mix, dp, priv)
				mixIPC := make([]float64, len(e.PerCore))
				aloneIPC := make([]float64, len(e.PerCore))
				for i, st := range e.PerCore {
					// Core i's "alone" IPC is core i of the homogeneous run of
					// its workload on the same design — same tile, same NOC
					// distances.
					alone := entry([]*synth.Workload{mix[i%len(mix)]}, dp, false)
					mixIPC[i], aloneIPC[i] = st.IPC(), alone.PerCore[i].IPC()
				}
				rows = append(rows, MixRow{
					Mix:             MixName(mix),
					Design:          dp,
					Private:         priv,
					IPC:             e.Stats.IPC(),
					HMeanIPC:        stats.HarmonicMean(mixIPC),
					WeightedSpeedup: stats.WeightedSpeedup(mixIPC, aloneIPC),
					BTBMPKI:         e.Stats.BTBMPKI(),
					L1IMPKI:         e.Stats.L1IMPKI(),
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
