package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"confluence"
	"confluence/internal/store"
)

// The grid every workload sweeps: the paper's five workloads × three
// designs — the conventional baseline, FDP, and Confluence (AirBTB with
// SHIFT). Base1K and FDP share warm state, so sampled sweeps reuse one
// warm snapshot per workload. The Phantom and two-level BTB designs are
// left to the golden checks (checks.go), which keeps a sweep short
// enough for several per run.
var gridDesigns = []string{"Base1K", "FDP", "Confluence"}

// Per-cell simulation size: the shape of the repository's smallest figure
// scale (experiments.Small) — 4 simulated cores, 800k warm-up and 800k
// measured instructions per core. Sampled cells cover the same region
// under the automatic plan, which measures 13 windows of it. The values
// are spelled out rather than read from experiments.Small so that the
// benchmark's work stays fixed if the scale is retuned.
const (
	gridCores   = 4
	gridWarmup  = 800_000
	gridMeasure = 800_000
)

// A sampled cell's IPC must lie within sampledIPCTolerance plus
// sampledIPCStdErrs of its own standard errors (both relative) of its
// exact run: a guard against broken sampling. A fixed bound alone does
// not hold on every seed: windows on bursty programs (OLTP-Oracle above
// all) vary enough that an honest estimate can land 6% off, though
// within about two of its standard errors. Over 500 seeded Confluence cells the
// error never exceeded 0.4 of this bound.
const (
	sampledIPCTolerance = 0.05
	sampledIPCStdErrs   = 4
)

// gridBench sweeps the grid cell by cell through confluence.RunCtx, each
// sweep against a fresh durable store. Sweep n runs program set n,
// generated before the sweep, so a run's timings average over five new
// programs per sweep rather than hinge on five; only one set is held in
// memory at a time.
type gridBench struct {
	sampled bool
	set     int // the program set cfgs holds
	cfgs    []confluence.Config

	ref      []string  // sweep 0's cell fingerprints
	refIPC   []float64 // sweep 0's cell IPCs
	refIPCSE []float64 // their standard errors, in sampled mode
	refStore string    // sweep 0's store, kept for the resume check
	reused   []int     // cells that restored a warm snapshot in sweep 0
}

// gridSpec is the grid as a sweep job spec; the seed picks the generated
// programs.
func gridSpec(seed uint64, sampled bool) *confluence.JobSpec {
	spec := &confluence.JobSpec{
		Kind:         confluence.KindSweep,
		Workloads:    confluence.PaperWorkloadNames(),
		Designs:      gridDesigns,
		Profile:      &confluence.ProfileTweak{Seed: &seed},
		Cores:        gridCores,
		WarmupInstr:  gridWarmup,
		MeasureInstr: gridMeasure,
	}
	if sampled {
		sp := confluence.AutoSampling(gridMeasure)
		spec.SampleWindowInstr = sp.WindowInstr
		spec.SamplePeriodInstr = sp.PeriodInstr
		spec.SampleWindows = sp.Windows
		spec.SampleWindowWarmupInstr = sp.WindowWarmupInstr
		spec.SampleJitterSeed = sp.JitterSeed
	}
	return spec
}

// setup generates the first sweep's programs.
func (g *gridBench) setup(r *runner) error {
	g.cfgs = nil
	return g.load(r, 0)
}

func (g *gridBench) prepare(r *runner, n int) error { return g.load(r, n) }

// load generates program set `set` unless it is the one held.
func (g *gridBench) load(r *runner, set int) error {
	if g.cfgs != nil && g.set == set {
		return nil
	}
	g.cfgs = nil // let the previous set be collected while this one is built
	cfgs, err := gridSpec(mix64(r.seed, uint64(set)), g.sampled).Configs()
	if err != nil {
		return err
	}
	g.cfgs, g.set = cfgs, set
	return nil
}

func (g *gridBench) teardown() {}

func cellName(cfg confluence.Config) string {
	return cfg.Workload.Prof.Name + "/" + cfg.Design.String()
}

// covered is the simulated instructions a cell stands for: what exact
// mode details, and what sampled mode estimates.
func covered(cfg confluence.Config) float64 {
	return float64(cfg.Cores) * float64(cfg.WarmupInstr+cfg.MeasureInstr)
}

func (g *gridBench) sweep(ctx context.Context, r *runner, n int) error {
	dir := filepath.Join(r.dir, fmt.Sprintf("store-%d", n))
	cfgs := g.cfgs
	prints := make([]string, len(cfgs))
	ipcs := make([]float64, len(cfgs))
	ipcSEs := make([]float64, len(cfgs))
	reused := 0
	start := time.Now()
	prev := start
	for i, cfg := range cfgs {
		cfg.StoreDir = dir
		r.attempted++
		res, err := confluence.RunCtx(ctx, cfg)
		now := time.Now()
		ms := now.Sub(prev).Seconds() * 1000
		prev = now
		if err != nil {
			r.failed++
			r.problem("%s: %v", cellName(cfg), err)
			continue
		}
		r.unitMs = append(r.unitMs, ms)
		r.wall.latency += ms
		r.instr += covered(cfg)
		detailed := covered(cfg)
		minInstr := uint64(cfg.Cores) * cfg.MeasureInstr
		if rep := res.Sampled; rep != nil {
			detailed = float64(cfg.Cores) * float64(rep.DetailedInstructions)
			minInstr = uint64(cfg.Cores) * uint64(rep.Sampling.Windows) * rep.Sampling.WindowInstr
			ipcSEs[i] = rep.IPC.StdErr
			r.model.sampledCells++
			if rep.SnapshotReused {
				r.model.reusedCells++
				reused++
				if n == 0 {
					g.reused = append(g.reused, i)
				}
			}
		}
		r.model.add(res.Stats, covered(cfg), detailed)
		if err := checkStats(res.Stats, res.PerCore, minInstr); err != nil {
			r.problem("%s: %v", cellName(cfg), err)
		}
		prints[i] = fingerprint(res.Stats, res.PerCore)
		ipcs[i] = res.Stats.IPC()
	}
	r.sweepS = append(r.sweepS, time.Since(start).Seconds())

	if g.sampled && reused == 0 {
		r.problem("sweep %d restored no warm snapshot", n)
	}
	if n == 0 {
		g.ref, g.refIPC, g.refIPCSE, g.refStore = prints, ipcs, ipcSEs, dir
		return nil
	}
	return os.RemoveAll(dir)
}

// verify checks the model against pinned numbers, then re-derives sweep
// 0's results along independent paths: a resumed grid that sweep 0's
// store must answer, fresh re-runs (in sampled mode, cold warm-ups in
// place of restored snapshots), and exact runs as the anchor of sampled
// estimates.
func (g *gridBench) verify(ctx context.Context, r *runner) {
	checkGolden(ctx, r, false)
	if g.sampled {
		checkGolden(ctx, r, true)
	}
	if err := g.load(r, 0); err != nil {
		r.problem("regenerating the first program set: %v", err)
		return
	}
	same := func(what string, i int, cfg confluence.Config) {
		res, err := confluence.RunCtx(ctx, cfg)
		if err != nil {
			r.problem("%s %s: %v", what, cellName(cfg), err)
			return
		}
		if fingerprint(res.Stats, res.PerCore) != g.ref[i] {
			r.problem("%s %s differs from sweep 0", what, cellName(cfg))
		}
	}
	// Every cell must be in sweep 0's store, and the resumed grid must be
	// answered from it, one hit per cell, rather than re-simulated.
	ref := store.Open(g.refStore)
	for _, cfg := range g.cfgs {
		if key, ok := confluence.ConfigStoreKey(cfg); !ok || !ref.Has(key) {
			r.problem("sweep 0's store lacks %s", cellName(cfg))
		}
	}
	hits, _, _ := ref.Counters()
	for i, cfg := range g.cfgs {
		cfg.StoreDir = g.refStore
		same("resumed", i, cfg)
	}
	if after, _, _ := ref.Counters(); after-hits != uint64(len(g.cfgs)) {
		r.problem("resumed grid: the store answered %d of %d cells", after-hits, len(g.cfgs))
	}
	if !g.sampled {
		// The first workload's cells, re-run without the store.
		for i := range gridDesigns {
			same("re-run of", i, g.cfgs[i])
		}
		return
	}
	for _, i := range g.reused {
		same("cold warm-up of", i, g.cfgs[i])
	}
	for i, cfg := range g.cfgs {
		if cfg.Design != confluence.Confluence {
			continue
		}
		cfg.Sampling = confluence.Sampling{}
		res, err := confluence.RunCtx(ctx, cfg)
		if err != nil {
			r.problem("exact %s: %v", cellName(cfg), err)
			continue
		}
		exact := res.Stats.IPC()
		e := math.Abs(g.refIPC[i]-exact) / exact
		bound := sampledIPCTolerance + sampledIPCStdErrs*g.refIPCSE[i]/g.refIPC[i]
		fmt.Fprintf(os.Stderr, "bench: sampled %s: IPC error %.2f%% (bound %.1f%%)\n", cellName(cfg), 100*e, 100*bound)
		if !(e <= bound) {
			r.problem("sampled %s: IPC %.4f vs exact %.4f (%.1f%% error, bound %.1f%%)",
				cellName(cfg), g.refIPC[i], exact, 100*e, 100*bound)
		}
	}
}
