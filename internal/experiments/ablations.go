package experiments

import (
	"context"
	"strconv"

	"confluence/internal/core"
	"confluence/internal/stats"
)

// The ablations go beyond the paper's figures, probing the design choices
// DESIGN.md calls out: SHIFT's lookahead depth (timeliness vs waste) and
// shared vs private history (the paper's inter-core redundancy argument).
// Like the figures, each sweep plans its whole grid first, executes it
// across the worker pool, then assembles rows in canonical (workload,
// config) order.

// AblationRow is one configuration's outcome on one workload.
type AblationRow struct {
	Workload string
	Config   string
	IPC      float64
	BTBMPKI  float64
	L1IMPKI  float64
}

// sweep plans Confluence over every (workload, option variant) pair and
// assembles one AblationRow per cell. configs yields the variant's label
// and options by index.
func (r *Runner) sweep(ctx context.Context, n int, configs func(int) (string, core.Options)) ([]AblationRow, error) {
	names := make([]string, n)
	cols := make([]column, n)
	for i := range cols {
		names[i], cols[i].opt = configs(i)
		cols[i].dp = core.Confluence
	}
	g, err := r.table(ctx, cols)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, w := range r.Workloads {
		for j, e := range g[i] {
			rows = append(rows, AblationRow{
				Workload: w.Prof.Name, Config: names[j],
				IPC: e.Stats.IPC(), BTBMPKI: e.Stats.BTBMPKI(), L1IMPKI: e.Stats.L1IMPKI(),
			})
		}
	}
	return rows, nil
}

// LookaheadSweep measures Confluence across SHIFT lookahead depths.
func (r *Runner) LookaheadSweep(ctx context.Context, depths []int) ([]AblationRow, error) {
	return r.sweep(ctx, len(depths), func(i int) (string, core.Options) {
		opt := r.options()
		opt.Shift.Lookahead = depths[i]
		return "lookahead=" + strconv.Itoa(depths[i]), opt
	})
}

// SharedVsPrivateHistory compares the paper's shared SHIFT history against
// per-core private instances (the sharing is an area play; performance
// should be close — the paper reports the same for PhantomBTB's shared
// variant).
func (r *Runner) SharedVsPrivateHistory(ctx context.Context) ([]AblationRow, error) {
	return r.sweep(ctx, 2, func(i int) (string, core.Options) {
		opt := r.options()
		opt.HistoryPerCore = i == 1
		if opt.HistoryPerCore {
			return "private-history", opt
		}
		return "shared-history", opt
	})
}

// AblationTable formats ablation rows.
func AblationTable(title string, rows []AblationRow) *stats.Table {
	t := stats.NewTable(title, "Workload", "Config", "IPC", "BTB MPKI", "L1-I MPKI")
	for _, r := range rows {
		t.Row(r.Workload, r.Config, r.IPC, r.BTBMPKI, r.L1IMPKI)
	}
	return t
}
