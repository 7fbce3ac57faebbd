// Package confluence is a simulation library reproducing "Confluence:
// Unified Instruction Supply for Scale-Out Servers" (Kaynak, Grot, Falsafi,
// MICRO-48, 2015).
//
// Confluence is a server-processor frontend that fills both the L1
// instruction cache and the branch target buffer from a single stream-based
// prefetcher (SHIFT) whose block-grain control-flow history is shared
// across cores and virtualized into the LLC. Its BTB, AirBTB, mirrors L1-I
// content: every block filled into the L1-I is predecoded and its branch
// targets eagerly installed; evictions stay synchronized.
//
// The library bundles everything needed to study the design: a synthetic
// server-workload generator standing in for the paper's commercial traces,
// a trace-driven multi-core frontend timing model, all competing designs
// from the paper's evaluation (conventional/two-level/Phantom BTBs, FDP),
// an area model, and experiment runners that regenerate every table and
// figure (see DESIGN.md and EXPERIMENTS.md).
//
// Quick start:
//
//	w, _ := confluence.BuildWorkload("OLTP-DB2")
//	res, _ := confluence.Run(confluence.Config{
//		Workload: w,
//		Design:   confluence.Confluence,
//		Cores:    8,
//	})
//	fmt.Println(res.Stats.IPC())
package confluence

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"confluence/internal/core"
	"confluence/internal/experiments"
	"confluence/internal/frontend"
	"confluence/internal/parallel"
	"confluence/internal/stats"
	"confluence/internal/store"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// DesignPoint selects a frontend configuration from the paper's evaluation.
type DesignPoint = core.DesignPoint

// The design points (see the paper's Figures 2, 6 and 7).
const (
	Base1K        = core.Base1K
	FDP1K         = core.FDP1K
	PhantomFDP    = core.PhantomFDP
	TwoLevelFDP   = core.TwoLevelFDP
	TwoLevelSHIFT = core.TwoLevelSHIFT
	Base1KSHIFT   = core.Base1KSHIFT
	PhantomSHIFT  = core.PhantomSHIFT
	Confluence    = core.Confluence
	IdealBTBSHIFT = core.IdealBTBSHIFT
	Ideal         = core.Ideal
)

// DesignByName resolves a design point from its String form (the names
// printed in tables and pinned in golden files) — the vocabulary
// serialized JobSpecs use.
func DesignByName(name string) (DesignPoint, bool) { return core.DesignByName(name) }

// DesignNames lists every design point's name in design-point order.
func DesignNames() []string { return core.DesignNames() }

// Workload is a generated synthetic server workload.
type Workload = synth.Workload

// Stats is the measured outcome of a simulation.
type Stats = frontend.Stats

// Options fine-tunes system assembly (AirBTB geometry, SHIFT sizing, ...).
type Options = core.Options

// Sampling configures SMARTS-style sampled execution (see Config.Sampling):
// Windows detailed measurement windows of WindowInstr instructions, one per
// PeriodInstr of forward progress, the gaps and the warm-up covered by
// functional fast-forward. The zero value is exact mode.
type Sampling = core.Sampling

// SampledReport is a sampled run's statistical summary: per-window
// aggregates, mean ± 95% confidence intervals, and cost accounting (see
// Result.Sampled).
type SampledReport = experiments.SampledReport

// AutoSampling derives a sampling plan for a measure region — eight
// windows, 1/10 of the region in detail — the plan behind the CLIs'
// -sample flag.
func AutoSampling(measure uint64) Sampling { return core.AutoSampling(measure) }

// WorkloadNames lists every available synthetic workload: the paper's
// five-workload suite first (the set the experiment runners reproduce
// figures over), then the extended scale-out scenarios.
func WorkloadNames() []string {
	var names []string
	for _, p := range synth.ExtendedProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// PaperWorkloadNames lists only the paper's five-workload suite.
func PaperWorkloadNames() []string {
	var names []string
	for _, p := range synth.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// BuildWorkload generates the named workload (see WorkloadNames).
// Generation is deterministic; building the same name twice yields
// identical programs.
func BuildWorkload(name string) (*Workload, error) {
	prof, ok := synth.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("confluence: unknown workload %q (have: %s)",
			name, strings.Join(WorkloadNames(), ", "))
	}
	return synth.Build(prof)
}

// BuildAllWorkloads generates the full suite.
func BuildAllWorkloads() ([]*Workload, error) {
	var ws []*Workload
	for _, name := range WorkloadNames() {
		w, err := BuildWorkload(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// WorkloadFromTrace wraps a capture directory (one CFLTRC01 file per
// captured core, as written by CaptureTrace or `tracegen -cores`) as a
// Workload: running it replays the capture through the timing model. The
// returned workload carries default timing calibration and no program
// image, so predecode-dependent mechanisms see no static metadata; to
// replay a capture of a known synthetic workload at full fidelity, pass
// that workload in Config.Workload and the capture in Config.TraceDir
// instead.
func WorkloadFromTrace(path string) (*Workload, error) {
	files, err := trace.TraceFiles(path)
	if err != nil {
		return nil, fmt.Errorf("confluence: %w", err)
	}
	// Validate every capture eagerly so a corrupt file — any file, since
	// cores stripe across all of them — fails here, not mid-simulation.
	for _, f := range files {
		src, err := trace.OpenFileSource(f, 0)
		if err != nil {
			return nil, fmt.Errorf("confluence: %w", err)
		}
		var rec trace.Record
		rerr := src.Next(&rec)
		src.Close()
		if rerr != nil {
			return nil, fmt.Errorf("confluence: validating %s: %w", f, rerr)
		}
	}
	prof := synth.TraceProfile("trace:" + filepath.Base(path))
	return &Workload{Prof: prof, TraceDir: path}, nil
}

// CaptureTrace writes a capture of w to dir: one trace file per core
// (core-000.trace, core-001.trace, ...), each at least instrPerCore
// instructions long, seeded exactly as a live Run seeds its cores — so a
// replay of the capture with up to `cores` cores is record-identical to
// the live simulation it stands in for. It is CaptureTraceCtx with a
// background context.
func CaptureTrace(w *Workload, dir string, cores int, instrPerCore uint64) error {
	return CaptureTraceCtx(context.Background(), w, dir, cores, instrPerCore)
}

// CaptureTraceCtx is CaptureTrace honoring mid-capture cancellation: the
// per-core capture loop polls ctx every few thousand records, removes the
// truncated (unusable) file it was writing, and returns ctx's error. A
// capture that completes is byte-identical whether or not a context is
// attached.
func CaptureTraceCtx(ctx context.Context, w *Workload, dir string, cores int, instrPerCore uint64) error {
	if w == nil || w.Prog == nil {
		return fmt.Errorf("confluence: CaptureTrace needs a generated workload")
	}
	if cores < 1 {
		return fmt.Errorf("confluence: CaptureTrace needs at least one core")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < cores; i++ {
		path := filepath.Join(dir, fmt.Sprintf("core-%03d.trace", i))
		if err := captureCore(ctx, w, path, trace.CoreSeed(w.Prof.Seed, i), instrPerCore); err != nil {
			os.Remove(path) // a truncated capture must not look replayable
			return err
		}
	}
	return nil
}

func captureCore(ctx context.Context, w *Workload, path string, seed, instr uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, _, err := trace.CaptureCtx(ctx, f, trace.NewExecutor(w, seed), instr); err != nil {
		return err
	}
	return f.Close()
}

// Config describes one simulation.
type Config struct {
	// Workload runs on every core — the paper's homogeneous configuration.
	// Exactly one of Workload and Mix must be set.
	Workload *Workload
	// Mix consolidates heterogeneous workloads onto one CMP: core i runs
	// Mix[i mod len(Mix)], with its own program image, predecode metadata,
	// and timing calibration. Each mix slot occupies a distinct address
	// space, so shared structures (the LLC, SHIFT's history, PhantomBTB's
	// group store) are stressed by the combined footprint without false
	// aliasing between programs. A mix of N copies of one workload (same
	// pointer or rebuilt from the same profile) is bit-identical to the
	// homogeneous run of that workload.
	Mix []*Workload
	// Design selects the frontend configuration.
	Design DesignPoint
	// Cores is the CMP width (default 16, the paper's configuration).
	Cores int
	// WarmupInstr/MeasureInstr are per-core instruction counts. Zero is a
	// sentinel selecting the default (1.5M each) — it does NOT request a
	// zero-length warmup; set NoWarmup to measure from cold state.
	WarmupInstr  uint64
	MeasureInstr uint64
	// NoWarmup skips the warmup phase entirely (WarmupInstr is ignored),
	// measuring from cold caches, predictors, and history — the escape
	// hatch from WarmupInstr's zero-means-default sentinel.
	NoWarmup bool
	// TraceDir, when non-empty, replays the capture in that directory
	// through the timing model instead of executing the workload live: core
	// i replays file i mod F (sorted by name) with a deterministic record
	// offset when cores outnumber files. It overrides any TraceDir carried
	// by the Workload itself (see WorkloadFromTrace), while an explicit
	// Options.Sources overrides both. The Workload is still
	// required — it supplies timing calibration, and (when it is the
	// workload the capture was taken from) the program image for predecode.
	TraceDir string
	// StoreDir, when non-empty, consults and feeds the durable
	// content-addressed result store rooted at that directory: a run whose
	// key (workloads, design, options, instruction counts, code version —
	// see experiments.CellSpec.Key) is already stored returns the persisted
	// result without simulating, and a completed run persists its result
	// for future processes. Stored results are byte-identical to live runs
	// (exact float64 JSON round trip), so resuming an interrupted grid
	// against the same store reproduces the uninterrupted output exactly.
	// Empty preserves today's in-memory-only behavior exactly. Runs with an
	// Options.Sources override bypass the store (their inputs are not
	// serializable); the CONFLUENCE_STORE_MAX_BYTES environment variable
	// caps the directory (LRU eviction).
	StoreDir string
	// Sampling, when enabled, replaces exact execution with SMARTS-style
	// sampled measurement: warm-up runs through functional fast-forward
	// (only history-relevant state evolves — branch predictors, BTBs,
	// caches, SHIFT history — at a fraction of detailed cost), then the
	// measure region is covered by periodic detailed windows whose
	// statistics aggregate into Result.Stats plus a Result.Sampled report
	// with 95% confidence intervals. With StoreDir set, the warm-up state
	// at the first window boundary is checkpointed into the store and
	// reused by later runs sharing the workload prefix (bit-identical to a
	// live fast-forward warm-up). The zero value is exact mode, unchanged.
	Sampling Sampling
	// Tuning, optional: zero value uses the paper's configuration.
	Options Options
}

// Result is a completed simulation.
type Result struct {
	Config Config
	Stats  *Stats
	// PerCore is each core's measured stats, in core order (core i ran
	// Config.Mix[i mod len(Mix)], or the single Workload). Stats is the
	// in-order sum of these.
	PerCore []*Stats
	// OverheadMM2 and RelativeArea place the design on the paper's
	// performance/area plane.
	OverheadMM2  float64
	RelativeArea float64
	// Sampled is the sampling report of a Config.Sampling run (nil in
	// exact mode): per-window aggregates, mean ± 95% CI estimates, and
	// the detailed-instruction reduction achieved.
	Sampled *SampledReport
}

// Run assembles and simulates one design point. It is RunCtx with a
// background context.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// resolveConfig applies RunCtx's defaulting rules — mix vs. single
// workload, the simulation shape (see scale), the Config knobs that win
// over Options — and returns the resolved cell and config. It exists so
// ConfigStoreKey, fleet workers and RunCtx derive a cell from one
// resolution path: a coordinator that computed keys with its own copy of
// these rules would silently diverge the moment a default changed.
func resolveConfig(cfg Config) (experiments.CellSpec, Config, error) {
	mix := cfg.Mix
	switch {
	case len(mix) == 0 && cfg.Workload == nil:
		return experiments.CellSpec{}, cfg, fmt.Errorf("confluence: Config.Workload or Config.Mix is required")
	case len(mix) > 0 && cfg.Workload != nil:
		return experiments.CellSpec{}, cfg, fmt.Errorf("confluence: Config.Workload and Config.Mix are mutually exclusive")
	case len(mix) == 0:
		mix = []*Workload{cfg.Workload}
	}
	for _, w := range mix {
		if w == nil {
			return experiments.CellSpec{}, cfg, fmt.Errorf("confluence: nil workload in Config.Mix")
		}
	}
	sc := cfg.scale()
	cfg.WarmupInstr, cfg.MeasureInstr = sc.Warmup, sc.Measure
	opt := cfg.Options
	opt.Cores = sc.Cores
	return experiments.CellSpec{
		Mix: mix, TraceDir: cfg.TraceDir, Design: cfg.Design, Opt: opt,
		Warmup: sc.Warmup, Measure: sc.Measure, Sampling: cfg.Sampling,
	}, cfg, nil
}

// scale resolves cfg's simulation shape from its zero-means-default
// sentinels: the CMP width (Cores, then Options.Cores, then the paper's
// 16) and the per-core warmup/measure counts (1.5M each; NoWarmup forces
// a zero-length warm-up). Only the width of Options is defaulted here:
// core.NewMixSystem field-defaults the remaining tuning, so a caller's
// partially-specified Options (custom AirBTB geometry, private
// histories, ...) survives intact.
func (cfg Config) scale() experiments.Scale {
	sc := experiments.Scale{Cores: cfg.Cores, Warmup: cfg.WarmupInstr, Measure: cfg.MeasureInstr}
	if sc.Cores <= 0 {
		sc.Cores = cfg.Options.Cores
	}
	if sc.Cores == 0 {
		sc.Cores = core.DefaultOptions().Cores
	}
	switch {
	case cfg.NoWarmup:
		sc.Warmup = 0
	case sc.Warmup == 0:
		sc.Warmup = 1_500_000
	}
	if sc.Measure == 0 {
		sc.Measure = 1_500_000
	}
	return sc
}

// ConfigCellSpec returns the cell RunCtx executes for cfg, after applying
// its defaulting rules. Fleet workers run it through experiments.Execute.
func ConfigCellSpec(cfg Config) (experiments.CellSpec, error) {
	cell, _, err := resolveConfig(cfg)
	return cell, err
}

// ConfigStoreKey returns the durable store key RunCtx will read and write
// for cfg: its cell's CellSpec.Key. ok is false when the config is invalid
// or contains opaque key material (an Options.Sources closure) that keeps
// it out of the store. Fleet coordinators use this to name grid cells
// without running anything.
func ConfigStoreKey(cfg Config) (string, bool) {
	cell, err := ConfigCellSpec(cfg)
	if err != nil {
		return "", false
	}
	return cell.Key()
}

// RunCtx assembles and simulates one design point, honoring cancellation
// mid-run: the engine polls ctx at every detailed stage batch and after
// every fast-forward chunk replay (see cmp.System.RunCtx), so a cancelled
// simulation returns ctx.Err() within milliseconds instead of running to
// its instruction target. A run that
// completes is bit-identical to Run — the poll feeds nothing back into
// the timing model.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	return runCtx(ctx, cfg, 0)
}

// runCtx is RunCtx with intraShare bounding the cores that step
// fast-forward at once (experiments.Simulate's workers; 0 means
// min(GOMAXPROCS, cores)): RunMany's share of the goroutine budget for
// each of its concurrent cells. Like every worker count it changes
// nothing but wall-clock.
func runCtx(ctx context.Context, cfg Config, intraShare int) (*Result, error) {
	cell, cfg, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		st = store.Open(cfg.StoreDir)
	}
	e, err := experiments.Execute(ctx, cell, intraShare, st)
	if err != nil {
		return nil, err
	}
	return &Result{
		Config:       cfg,
		Stats:        e.Stats,
		PerCore:      e.PerCore,
		OverheadMM2:  e.OverheadMM2,
		RelativeArea: e.RelativeArea,
		Sampled:      e.Sampled,
	}, nil
}

// HarmonicMeanIPC returns the harmonic mean of the cores' IPCs — the
// multi-programmed throughput metric that weights every core's progress
// equally (a stalled core drags the mean toward zero).
func HarmonicMeanIPC(per []*Stats) float64 {
	ipc := make([]float64, len(per))
	for i, st := range per {
		ipc[i] = st.IPC()
	}
	return stats.HarmonicMean(ipc)
}

// WeightedSpeedup returns the mean of per-core IPC ratios mix[i]/alone[i]:
// each core's progress under consolidation relative to the same core
// running its workload homogeneously. Both slices are in core order and
// must have equal length.
func WeightedSpeedup(mix, alone []*Stats) (float64, error) {
	if len(mix) != len(alone) {
		return 0, fmt.Errorf("confluence: WeightedSpeedup: %d mix cores vs %d baseline cores", len(mix), len(alone))
	}
	m := make([]float64, len(mix))
	a := make([]float64, len(alone))
	for i := range mix {
		m[i] = mix[i].IPC()
		a[i] = alone[i].IPC()
	}
	return stats.WeightedSpeedup(m, a), nil
}

// RunMany executes the configs concurrently on a bounded worker pool and
// returns results in input order — never completion order, so output is
// deterministic for any worker count. A zero parallelism falls back to
// REPRO_WORKERS, then GOMAXPROCS. The first error cancels the remaining
// runs, including simulations already in flight (RunCtx polls the context
// mid-run). Cells that run concurrently split the goroutine budget: each
// fast-forwards on its experiments.CellShare, as a Runner's cells do,
// rather than every cell sizing itself to the whole machine.
func RunMany(ctx context.Context, parallelism int, cfgs []Config) ([]*Result, error) {
	share := experiments.CellShare(min(parallel.Workers(parallelism), len(cfgs)))
	res := make([]*Result, len(cfgs))
	err := parallel.ForEach(ctx, parallelism, len(cfgs),
		func(ctx context.Context, i int) error {
			r, err := runCtx(ctx, cfgs[i], share)
			res[i] = r
			return err
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CompareWith runs several design points under one base configuration
// and returns speedups relative to the first design in the list: every
// design is simulated under base (Design ignored), fanning out across
// REPRO_WORKERS, else GOMAXPROCS, workers.
func CompareWith(ctx context.Context, base Config, designs []DesignPoint) (map[DesignPoint]float64, error) {
	if len(designs) == 0 {
		return nil, fmt.Errorf("confluence: no designs to compare")
	}
	cfgs := make([]Config, len(designs))
	for i, dp := range designs {
		cfgs[i] = base
		cfgs[i].Design = dp
	}
	res, err := RunMany(ctx, 0, cfgs)
	if err != nil {
		return nil, err
	}
	speedups := make(map[DesignPoint]float64, len(designs))
	baseIPC := res[0].Stats.IPC()
	for i, dp := range designs {
		speedups[dp] = res[i].Stats.IPC() / baseIPC
	}
	return speedups, nil
}

// Experiments exposes the paper's table/figure runners at a given scale
// name ("small", "default", "paper"); see package
// confluence/internal/experiments for the individual runners. The runner's
// grid scheduler fans simulations out across REPRO_WORKERS, else
// GOMAXPROCS, workers; set Runner.Workers to override.
func Experiments(scale string) (*experiments.Runner, error) {
	sc, ok := experiments.ScaleByName(scale)
	if !ok {
		sc = experiments.Default
	}
	return experiments.NewRunner(sc, 0)
}
