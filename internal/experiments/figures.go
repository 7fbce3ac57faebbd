package experiments

import (
	"context"
	"fmt"

	"confluence/internal/airbtb"
	"confluence/internal/core"
	"confluence/internal/stats"
)

// Every figure follows the same two-phase shape: Runner.table executes the
// figure's (workload × column) grid, baselines included, across the worker
// pool and reads it back from the memo cache in canonical order, so row
// and column order never depend on which worker finished first.

// Figure1Sizes are the BTB capacities swept by the paper's Figure 1.
var Figure1Sizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}

// Fig1Row is one workload's BTB MPKI curve.
type Fig1Row struct {
	Workload string
	MPKI     []float64 // parallel to Figure1Sizes
}

// sweepOptions returns default options with the conventional BTB sized to
// entries (Figure 1 / Figure 9's 16K reference point).
func (r *Runner) sweepOptions(entries int) core.Options {
	opt := r.options()
	opt.SweepBTBEntries = entries
	return opt
}

// Figure1 reproduces "BTB MPKI as a function of BTB capacity": a
// conventional BTB swept from 1K to 32K entries, no prefetching. The
// paper's shape: most workloads flatten by 16K entries; OLTP-Oracle still
// gains at 32K.
func (r *Runner) Figure1(ctx context.Context) ([]Fig1Row, error) {
	var cols []column
	for _, e := range Figure1Sizes {
		cols = append(cols, column{core.SweepBTB, r.sweepOptions(e)})
	}
	g, err := r.table(ctx, cols)
	if err != nil {
		return nil, err
	}
	var rows []Fig1Row
	for i, w := range r.Workloads {
		row := Fig1Row{Workload: w.Prof.Name}
		for _, c := range g[i] {
			mpki := c.Stats.BTBMPKI()
			if c.Sampled != nil {
				// Sweep BTBs have no prefetcher, so a sampled cell's
				// full-coverage ratio is exact — the figure loses nothing.
				mpki = c.Sampled.BestBTBMPKI(c.Stats)
			}
			row.MPKI = append(row.MPKI, mpki)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure1Table formats Figure1 results.
func Figure1Table(rows []Fig1Row) *stats.Table {
	t := stats.NewTable("Figure 1: BTB MPKI vs BTB capacity (entries)",
		"Workload", "1K", "2K", "4K", "8K", "16K", "32K")
	for _, r := range rows {
		cells := []any{r.Workload}
		for _, m := range r.MPKI {
			cells = append(cells, m)
		}
		t.Row(cells...)
	}
	avg := []any{"Average"}
	for i := range Figure1Sizes {
		var col []float64
		for _, r := range rows {
			col = append(col, r.MPKI[i])
		}
		avg = append(avg, stats.Mean(col))
	}
	t.Row(avg...)
	return t
}

// Figure2Designs are the conventional frontends of the paper's Figure 2.
var Figure2Designs = []core.DesignPoint{
	core.Base1K, core.FDP1K, core.PhantomFDP, core.TwoLevelFDP,
	core.TwoLevelSHIFT, core.Ideal,
}

// Figure6Designs add Confluence (the paper's Figure 6 = Figure 2 + Confluence).
var Figure6Designs = []core.DesignPoint{
	core.Base1K, core.FDP1K, core.PhantomFDP, core.TwoLevelFDP,
	core.TwoLevelSHIFT, core.Confluence, core.Ideal,
}

// PerfAreaPoint is one design's position on the performance/area plane,
// normalized to the Base1K core (paper Figs 2 and 6).
type PerfAreaPoint struct {
	Design      core.DesignPoint
	RelPerf     float64 // geomean speedup over Base1K across workloads
	RelArea     float64
	PerWorkload map[string]float64 // speedup per workload
	FracOfIdeal float64            // share of Ideal's improvement delivered
}

// perfArea runs a design list and computes normalized points.
func (r *Runner) perfArea(ctx context.Context, designs []core.DesignPoint) ([]PerfAreaPoint, error) {
	g, err := r.table(ctx, r.defaults(append([]core.DesignPoint{core.Base1K}, designs...)...))
	if err != nil {
		return nil, err
	}
	var points []PerfAreaPoint
	for j, dp := range designs {
		p := PerfAreaPoint{Design: dp, PerWorkload: make(map[string]float64)}
		var speedups []float64
		for i, w := range r.Workloads {
			e := g[i][j+1]
			s := e.Stats.IPC() / g[i][0].Stats.IPC()
			p.PerWorkload[w.Prof.Name] = s
			speedups = append(speedups, s)
			p.RelArea = e.RelativeArea // the design's area, whatever the workload
		}
		p.RelPerf = stats.Geomean(speedups)
		points = append(points, p)
	}
	// Fraction of Ideal's improvement.
	var ideal float64
	for _, p := range points {
		if p.Design == core.Ideal {
			ideal = p.RelPerf - 1
		}
	}
	for i := range points {
		if ideal > 0 {
			points[i].FracOfIdeal = (points[i].RelPerf - 1) / ideal
		}
	}
	return points, nil
}

// Figure2 reproduces "relative performance & area overhead of conventional
// instruction-supply mechanisms".
func (r *Runner) Figure2(ctx context.Context) ([]PerfAreaPoint, error) {
	return r.perfArea(ctx, Figure2Designs)
}

// Figure6 reproduces Figure 2 plus Confluence: the paper's headline result
// (Confluence ≈ 85% of Ideal's improvement at ~1% area overhead, vs
// 2LevelBTB+SHIFT at 62% with ~8%).
func (r *Runner) Figure6(ctx context.Context) ([]PerfAreaPoint, error) {
	return r.perfArea(ctx, Figure6Designs)
}

// PerfAreaTable formats Figure 2/6 results.
func PerfAreaTable(title string, points []PerfAreaPoint) *stats.Table {
	t := stats.NewTable(title, "Design", "RelPerf", "RelArea", "FracOfIdeal")
	for _, p := range points {
		t.Row(p.Design.String(), p.RelPerf, fmt.Sprintf("%.4f", p.RelArea), p.FracOfIdeal)
	}
	return t
}

// Figure7Designs are the SHIFT-coupled BTB designs of the paper's Figure 7,
// normalized to Base1K+SHIFT.
var Figure7Designs = []core.DesignPoint{
	core.PhantomSHIFT, core.TwoLevelSHIFT, core.Confluence, core.IdealBTBSHIFT,
}

// Fig7Row is one workload's speedups.
type Fig7Row struct {
	Workload string
	Speedup  map[core.DesignPoint]float64
}

// Figure7 reproduces "speedup of various BTB designs over 1K-entry
// conventional BTB when coupled with SHIFT": the paper's shape has
// PhantomBTB lowest, 2LevelBTB at ~51% of IdealBTB's speedup (stalled by L2
// bubbles despite matching hit rate), and Confluence at ~90% of IdealBTB.
func (r *Runner) Figure7(ctx context.Context) ([]Fig7Row, error) {
	g, err := r.table(ctx, r.defaults(append([]core.DesignPoint{core.Base1KSHIFT}, Figure7Designs...)...))
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for i, w := range r.Workloads {
		row := Fig7Row{Workload: w.Prof.Name, Speedup: make(map[core.DesignPoint]float64)}
		for j, dp := range Figure7Designs {
			row.Speedup[dp] = g[i][j+1].Stats.IPC() / g[i][0].Stats.IPC()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure7Table formats Figure 7 results.
func Figure7Table(rows []Fig7Row) *stats.Table {
	t := stats.NewTable("Figure 7: speedup over Base1K+SHIFT",
		"Workload", "PhantomBTB+SHIFT", "2LevelBTB+SHIFT", "Confluence", "IdealBTB+SHIFT")
	add := func(name string, get func(core.DesignPoint) float64) {
		t.Row(name, get(core.PhantomSHIFT), get(core.TwoLevelSHIFT),
			get(core.Confluence), get(core.IdealBTBSHIFT))
	}
	sums := make(map[core.DesignPoint][]float64)
	for _, r := range rows {
		add(r.Workload, func(dp core.DesignPoint) float64 {
			sums[dp] = append(sums[dp], r.Speedup[dp])
			return r.Speedup[dp]
		})
	}
	add("Geomean", func(dp core.DesignPoint) float64 { return stats.Geomean(sums[dp]) })
	return t
}

// Fig8Row decomposes AirBTB's miss coverage over Base1K into the paper's
// four cumulative mechanisms (Figure 8): Capacity (block-organization's
// denser storage), Spatial Locality (eager whole-block insertion on demand
// fills), Prefetching (SHIFT-driven fills feed the BTB), Block-Based
// Organization (bundles synchronized with the L1-I).
type Fig8Row struct {
	Workload string
	Capacity float64
	Spatial  float64
	Prefetch float64
	BlockOrg float64
	Total    float64
}

// Figure8 reproduces the AirBTB benefit breakdown.
func (r *Runner) Figure8(ctx context.Context) ([]Fig8Row, error) {
	g, err := r.table(ctx, r.defaults(core.Base1K, core.AirCapacity, core.AirSpatial, core.AirPrefetch, core.Confluence))
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for i, w := range r.Workloads {
		var cov [4]float64
		for j := range cov {
			cov[j] = stats.Coverage(g[i][0].Stats.BTBMPKI(), g[i][j+1].Stats.BTBMPKI())
		}
		rows = append(rows, Fig8Row{
			Workload: w.Prof.Name,
			Capacity: cov[0],
			Spatial:  cov[1] - cov[0],
			Prefetch: cov[2] - cov[1],
			BlockOrg: cov[3] - cov[2],
			Total:    cov[3],
		})
	}
	return rows, nil
}

// Figure8Table formats Figure 8 results.
func Figure8Table(rows []Fig8Row) *stats.Table {
	t := stats.NewTable("Figure 8: AirBTB miss-coverage breakdown over Base1K (%)",
		"Workload", "Capacity", "+SpatialLocality", "+Prefetching", "+BlockBasedOrg", "Total")
	var a, b, c, d, e []float64
	for _, r := range rows {
		t.Row(r.Workload, r.Capacity, r.Spatial, r.Prefetch, r.BlockOrg, r.Total)
		a, b, c, d, e = append(a, r.Capacity), append(b, r.Spatial), append(c, r.Prefetch), append(d, r.BlockOrg), append(e, r.Total)
	}
	t.Row("Average", stats.Mean(a), stats.Mean(b), stats.Mean(c), stats.Mean(d), stats.Mean(e))
	return t
}

// Fig9Row compares BTB miss coverage over Base1K (Figure 9): PhantomBTB
// (61% in the paper), AirBTB within Confluence (93%), and a 16K-entry
// conventional BTB (95%).
type Fig9Row struct {
	Workload string
	Phantom  float64
	AirBTB   float64
	Conv16K  float64
}

// Figure9 reproduces the coverage comparison.
func (r *Runner) Figure9(ctx context.Context) ([]Fig9Row, error) {
	cols := append(r.defaults(core.Base1K, core.PhantomFDP, core.Confluence), column{core.SweepBTB, r.sweepOptions(16 << 10)})
	g, err := r.table(ctx, cols)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for i, w := range r.Workloads {
		base := g[i][0].Stats.BTBMPKI()
		rows = append(rows, Fig9Row{
			Workload: w.Prof.Name,
			Phantom:  stats.Coverage(base, g[i][1].Stats.BTBMPKI()),
			AirBTB:   stats.Coverage(base, g[i][2].Stats.BTBMPKI()),
			Conv16K:  stats.Coverage(base, g[i][3].Stats.BTBMPKI()),
		})
	}
	return rows, nil
}

// Figure9Table formats Figure 9 results.
func Figure9Table(rows []Fig9Row) *stats.Table {
	t := stats.NewTable("Figure 9: BTB misses eliminated over Base1K (%)",
		"Workload", "PhantomBTB", "AirBTB", "16K BTB")
	var a, b, c []float64
	for _, r := range rows {
		t.Row(r.Workload, r.Phantom, r.AirBTB, r.Conv16K)
		a, b, c = append(a, r.Phantom), append(b, r.AirBTB), append(c, r.Conv16K)
	}
	t.Row("Average", stats.Mean(a), stats.Mean(b), stats.Mean(c))
	return t
}

// Figure10Configs are the AirBTB sensitivity points (bundle entries B,
// overflow buffer OB).
var Figure10Configs = []airbtb.Config{
	{Bundles: 512, EntriesPerBundle: 3, OverflowEntries: 0},
	{Bundles: 512, EntriesPerBundle: 3, OverflowEntries: 32},
	{Bundles: 512, EntriesPerBundle: 4, OverflowEntries: 0},
	{Bundles: 512, EntriesPerBundle: 4, OverflowEntries: 32},
}

// airOptions returns default options with the AirBTB geometry replaced.
func (r *Runner) airOptions(ac airbtb.Config) core.Options {
	opt := r.options()
	opt.Air = ac
	return opt
}

// Figure10 reproduces the AirBTB design-parameter sensitivity: without an
// overflow buffer the 3-entry bundle configuration can be *worse* than the
// 1K baseline on some workloads (negative coverage), and B:3/OB:32 is the
// chosen design.
func (r *Runner) Figure10(ctx context.Context) ([]Fig10Row, error) {
	cols := r.defaults(core.Base1K)
	for _, ac := range Figure10Configs {
		cols = append(cols, column{core.Confluence, r.airOptions(ac)})
	}
	g, err := r.table(ctx, cols)
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for i, w := range r.Workloads {
		row := Fig10Row{Workload: w.Prof.Name}
		for _, e := range g[i][1:] {
			row.Coverage = append(row.Coverage, stats.Coverage(g[i][0].Stats.BTBMPKI(), e.Stats.BTBMPKI()))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10Row is one workload's coverage per AirBTB configuration.
type Fig10Row struct {
	Workload string
	Coverage []float64 // parallel to Figure10Configs
}

// Figure10Table formats Figure 10 results.
func Figure10Table(rows []Fig10Row) *stats.Table {
	t := stats.NewTable("Figure 10: AirBTB sensitivity (coverage %, B=bundle entries, OB=overflow)",
		"Workload", "B:3,OB:0", "B:3,OB:32", "B:4,OB:0", "B:4,OB:32")
	for _, r := range rows {
		t.Row(r.Workload, r.Coverage[0], r.Coverage[1], r.Coverage[2], r.Coverage[3])
	}
	return t
}
