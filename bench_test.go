package confluence

// The benchmarks regenerate the paper's tables and figures — one benchmark
// per table/figure — and report the headline numbers as custom metrics.
// Run them with:
//
//	go test -bench=. -benchmem
//
// REPRO_SCALE (small|default|paper) controls simulation effort; benchmarks
// default to the small scale so the full suite stays in CI territory. Use
// cmd/confluence-sim for full-scale tables.
//
// Each iteration runs the experiment from scratch (fresh caches); workload
// generation is shared, since programs are inputs, not the system under
// test. Pass -v to see the regenerated tables.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"confluence/internal/core"
	"confluence/internal/experiments"
	"confluence/internal/stats"
	"confluence/internal/synth"
)

var (
	benchOnce sync.Once
	benchWs   []*synth.Workload
	benchErr  error
)

func benchScale() experiments.Scale {
	if sc, ok := experiments.ScaleByName(os.Getenv("REPRO_SCALE")); ok {
		return sc
	}
	return experiments.Small
}

func benchWorkloads(b *testing.B) []*synth.Workload {
	b.Helper()
	benchOnce.Do(func() {
		for _, prof := range synth.Profiles() {
			w, err := synth.Build(prof)
			if err != nil {
				benchErr = err
				return
			}
			benchWs = append(benchWs, w)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWs
}

func benchRunner(b *testing.B) *experiments.Runner {
	return experiments.NewRunnerFor(benchScale(), benchWorkloads(b))
}

// BenchmarkFigure1_BTBCapacitySweep regenerates Figure 1: BTB MPKI as a
// function of BTB capacity, 1K..32K entries, per workload.
func BenchmarkFigure1_BTBCapacitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		rows, err := r.Figure1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var at1K, at16K []float64
		for _, row := range rows {
			at1K = append(at1K, row.MPKI[0])
			at16K = append(at16K, row.MPKI[4])
		}
		b.ReportMetric(stats.Mean(at1K), "mpki@1K")
		b.ReportMetric(stats.Mean(at16K), "mpki@16K")
		if i == 0 {
			b.Log("\n" + experiments.Figure1Table(rows).String())
		}
	}
}

// BenchmarkFigure1_Sampled regenerates Figure 1 in SMARTS-style sampled
// mode — the headline perf pairing with BenchmarkFigure1_BTBCapacitySweep
// above: same sweep, ≥10× fewer detailed instructions (the detailx
// metric), with the sweep's prefetcherless cells exact via full-coverage
// probe tallies.
func BenchmarkFigure1_Sampled(b *testing.B) {
	sc := benchScale()
	sp := core.AutoSampling(sc.Measure)
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		r.Sampling = sp
		rows, err := r.Figure1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var at1K []float64
		for _, row := range rows {
			at1K = append(at1K, row.MPKI[0])
		}
		b.ReportMetric(stats.Mean(at1K), "mpki@1K")
		b.ReportMetric(float64(sc.Warmup+sc.Measure)/float64(sp.DetailedInstr()), "detailx")
		if i == 0 {
			b.Log("\n" + experiments.Figure1Table(rows).String())
		}
	}
}

// BenchmarkTable2_BranchDensity regenerates Table 2: static and dynamic
// branch density per demand-fetched 64B block.
func BenchmarkTable2_BranchDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		rows, err := r.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var st, dy []float64
		for _, row := range rows {
			st = append(st, row.Static)
			dy = append(dy, row.Dynamic)
		}
		b.ReportMetric(stats.Mean(st), "static/blk")
		b.ReportMetric(stats.Mean(dy), "dynamic/blk")
		if i == 0 {
			b.Log("\n" + experiments.Table2Table(rows).String())
		}
	}
}

// BenchmarkFigure2_ConventionalFrontends regenerates Figure 2: performance
// vs area for the conventional instruction-supply mechanisms.
func BenchmarkFigure2_ConventionalFrontends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		points, err := r.Figure2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Design == core.TwoLevelSHIFT {
				b.ReportMetric(p.FracOfIdeal, "2LevSHIFT/ideal")
			}
		}
		if i == 0 {
			b.Log("\n" + experiments.PerfAreaTable("Figure 2", points).String())
		}
	}
}

// BenchmarkFigure6_Confluence regenerates Figure 6 — the headline
// performance/area result including Confluence.
func BenchmarkFigure6_Confluence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		points, err := r.Figure6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			switch p.Design {
			case core.Confluence:
				b.ReportMetric(p.FracOfIdeal, "confluence/ideal")
				b.ReportMetric(p.RelArea, "confluence-area")
			case core.Ideal:
				b.ReportMetric(p.RelPerf, "ideal-speedup")
			}
		}
		if i == 0 {
			b.Log("\n" + experiments.PerfAreaTable("Figure 6", points).String())
		}
	}
}

// BenchmarkFigure7_BTBDesignsWithSHIFT regenerates Figure 7: speedups of
// the BTB designs when all are paired with SHIFT.
func BenchmarkFigure7_BTBDesignsWithSHIFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		rows, err := r.Figure7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var conf, ideal []float64
		for _, row := range rows {
			conf = append(conf, row.Speedup[core.Confluence])
			ideal = append(ideal, row.Speedup[core.IdealBTBSHIFT])
		}
		b.ReportMetric(stats.Geomean(conf), "confluence-speedup")
		b.ReportMetric(stats.Geomean(ideal), "idealbtb-speedup")
		if i == 0 {
			b.Log("\n" + experiments.Figure7Table(rows).String())
		}
	}
}

// BenchmarkFigure8_AirBTBBreakdown regenerates Figure 8: the cumulative
// AirBTB coverage decomposition.
func BenchmarkFigure8_AirBTBBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		rows, err := r.Figure8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var totals []float64
		for _, row := range rows {
			totals = append(totals, row.Total)
		}
		b.ReportMetric(stats.Mean(totals), "coverage%")
		if i == 0 {
			b.Log("\n" + experiments.Figure8Table(rows).String())
		}
	}
}

// BenchmarkFigure9_MissCoverage regenerates Figure 9: BTB misses eliminated
// by PhantomBTB, AirBTB, and a 16K-entry conventional BTB.
func BenchmarkFigure9_MissCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		rows, err := r.Figure9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var ph, air, conv []float64
		for _, row := range rows {
			ph = append(ph, row.Phantom)
			air = append(air, row.AirBTB)
			conv = append(conv, row.Conv16K)
		}
		b.ReportMetric(stats.Mean(ph), "phantom%")
		b.ReportMetric(stats.Mean(air), "airbtb%")
		b.ReportMetric(stats.Mean(conv), "16K%")
		if i == 0 {
			b.Log("\n" + experiments.Figure9Table(rows).String())
		}
	}
}

// BenchmarkFigure10_AirBTBSensitivity regenerates Figure 10: bundle size ×
// overflow buffer sensitivity.
func BenchmarkFigure10_AirBTBSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner(b)
		rows, err := r.Figure10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var chosen []float64 // B:3, OB:32 — the paper's final design
		for _, row := range rows {
			chosen = append(chosen, row.Coverage[1])
		}
		b.ReportMetric(stats.Mean(chosen), "B3OB32%")
		if i == 0 {
			b.Log("\n" + experiments.Figure10Table(rows).String())
		}
	}
}

// BenchmarkGridScheduler_WorkerScaling regenerates Figure 6 from a cold
// cache at different worker counts — the wall-clock win of the grid
// scheduler. The speedup over workers=1 approaches the core count on
// multi-core machines (cells are embarrassingly parallel); results are
// bit-identical at every width (see TestParallelDeterminism).
func BenchmarkGridScheduler_WorkerScaling(b *testing.B) {
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := benchRunner(b)
				r.Workers = workers
				if _, err := r.Figure6(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: instructions
// simulated per wall-clock second for the Confluence configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	ws := benchWorkloads(b)
	w := ws[0]
	opt := core.DefaultOptions()
	opt.Cores = 4
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(w, core.Confluence, opt)
		if err != nil {
			b.Fatal(err)
		}
		st, err := sys.Run(0, 250_000)
		if err != nil {
			b.Fatal(err)
		}
		instr += st.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
