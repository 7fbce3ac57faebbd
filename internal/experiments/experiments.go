// Package experiments regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its modules). Each runner returns
// typed results plus a formatted table whose rows match what the paper
// reports; absolute values differ from the paper (our substrate is a
// synthetic-workload simulator), but the shapes — orderings, rough factors,
// crossovers — are the reproduction target (EXPERIMENTS.md tracks both).
//
// The evaluation grid is embarrassingly parallel: every (workload, design
// point, options) cell is a self-contained, individually seeded simulation.
// Figures collect their cells into a Plan, which executes them on a bounded
// worker pool and memoizes results by cell key; tables are then assembled
// from the memo in canonical cell order, so output is bit-identical
// regardless of worker count.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/parallel"
	"confluence/internal/store"
	"confluence/internal/synth"
)

// Scale sets the simulation effort: CMP width and per-core warmup/measure
// instruction counts.
type Scale struct {
	Name    string
	Cores   int
	Warmup  uint64
	Measure uint64
}

// Predefined scales. Small keeps unit tests fast; Default balances fidelity
// and runtime for benches and the CLI; Paper approximates the paper's
// 16-core setup.
var (
	Small   = Scale{Name: "small", Cores: 4, Warmup: 800_000, Measure: 800_000}
	Default = Scale{Name: "default", Cores: 8, Warmup: 1_500_000, Measure: 1_500_000}
	Paper   = Scale{Name: "paper", Cores: 16, Warmup: 3_000_000, Measure: 3_000_000}
)

// ScaleByName returns a predefined scale.
func ScaleByName(name string) (Scale, bool) {
	for _, s := range []Scale{Small, Default, Paper} {
		if s.Name == name {
			return s, true
		}
	}
	return Scale{}, false
}

// ScaleFromEnv reads REPRO_SCALE (small|default|paper), defaulting to
// Default.
func ScaleFromEnv() Scale {
	if s, ok := ScaleByName(os.Getenv("REPRO_SCALE")); ok {
		return s
	}
	return Default
}

// Runner executes design points over the workload suite, caching results so
// figures that share runs (e.g. the Base1K baseline) pay for them once. A
// Runner is safe for concurrent use: the memo cache is singleflight per
// cell key and OnProgress callbacks are serialized, even when Workers is 1.
type Runner struct {
	Scale     Scale
	Workloads []*synth.Workload
	// Workers bounds concurrent simulations when a Plan executes, and each
	// of them fast-forwards on CellShare(Workers) cores at once. Zero
	// resolves through REPRO_WORKERS, then GOMAXPROCS (see parallel.Workers).
	Workers int
	// Sampling, when enabled, runs every cell in SMARTS-style sampled
	// mode: warm-up by functional fast-forward (reusing durable warm
	// snapshots when Store is set), then windowed detailed measurement
	// per the plan (see core.Sampling). Sampled cells occupy their own
	// memo and store namespace — the zero value (exact mode) remains the
	// default and the golden anchor.
	Sampling core.Sampling
	// Store, if set, is the durable result store consulted before and
	// written after every simulation: a cell whose key (CellSpec.Key, the
	// memo's key too — workloads, design, options, instruction counts,
	// ResultVersion) is already stored returns the persisted result without
	// simulating, which is what makes an interrupted grid resumable across
	// processes. Nil keeps the in-memory memo cache as the only caching
	// layer. Cells with no key (an Options.Sources override) bypass both.
	Store *store.Store
	// OnProgress, if set, receives one event per completed run (the wire
	// format the serving layer streams over SSE; ProgressEvent.String is
	// the CLI's -v line). Calls are serialized; the callback needs no
	// locking of its own.
	OnProgress func(ProgressEvent)

	mu         sync.Mutex // guards cache
	cache      map[string]*cacheEntry
	progressMu sync.Mutex
}

// cacheEntry is a singleflight slot: the first goroutine to claim a cell
// key simulates it and closes done; later arrivals block on done and share
// the result.
type cacheEntry struct {
	done chan struct{}
	e    StoreEntry
	err  error
}

// NewRunner builds the five-workload suite at the given scale, fanning
// workload generation out across the same bound the returned runner will
// simulate with (workers resolves like Runner.Workers; pass 0 for the
// REPRO_WORKERS/GOMAXPROCS default).
func NewRunner(sc Scale, workers int) (*Runner, error) {
	profiles := synth.Profiles()
	r := NewRunnerFor(sc, make([]*synth.Workload, len(profiles)))
	r.Workers = workers
	err := parallel.ForEach(context.Background(), r.workers(), len(profiles),
		func(_ context.Context, i int) (err error) {
			if r.Workloads[i], err = synth.Build(profiles[i]); err != nil {
				return fmt.Errorf("experiments: building %s: %w", profiles[i].Name, err)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// NewRunnerFor builds a runner over an explicit workload list (tests).
func NewRunnerFor(sc Scale, ws []*synth.Workload) *Runner {
	return &Runner{Scale: sc, Workloads: ws, cache: make(map[string]*cacheEntry)}
}

// MixName labels a workload mix: the single workload's name, or the slot
// names joined with "+" (the order is the core assignment, so it is part of
// the cell identity).
func MixName(mix []*synth.Workload) string {
	if len(mix) == 1 {
		return mix[0].Prof.Name
	}
	names := make([]string, len(mix))
	for i, w := range mix {
		names[i] = w.Prof.Name
	}
	return strings.Join(names, "+")
}

// CellShare returns the fast-forward bound (cmp.System.SetIntra) for each
// of cells simulations that run at once: max(1, GOMAXPROCS/cells), so
// their stepping goroutines together stay ≈ the machine. It is the single
// definition behind Runner cells and confluence.RunMany. Detailed phases
// do not use it: they always run one stage goroutine per core beside the
// weave, cores+1 goroutines per cell.
func CellShare(cells int) int { return max(1, runtime.GOMAXPROCS(0)/max(1, cells)) }

// workers resolves the runner's grid-level worker count.
func (r *Runner) workers() int { return parallel.Workers(r.Workers) }

// RunCtx simulates one cell, memoizing by cell key. Concurrent calls for
// the same key simulate once and share the result (singleflight); a failed
// or cancelled computation is evicted so later calls can retry. A waiter
// whose own context is still live does not inherit a leader's cancellation
// — it retries the (evicted) key, so cancelling one plan never fails a
// concurrent plan sharing cells on the same runner.
func (r *Runner) RunCtx(ctx context.Context, w *synth.Workload, dp core.DesignPoint, opt core.Options) (*frontend.Stats, error) {
	e, err := r.entry(ctx, []*synth.Workload{w}, dp, opt)
	return e.Stats, err
}

// cell resolves one cell at the runner's scale and sampling plan.
func (r *Runner) cell(mix []*synth.Workload, dp core.DesignPoint, opt core.Options) CellSpec {
	return CellSpec{Mix: mix, Design: dp, Opt: opt, Warmup: r.Scale.Warmup, Measure: r.Scale.Measure, Sampling: r.Sampling}
}

// entry is the runner's memo, keyed by CellSpec.Key: a cell's stats,
// per-core stats in core order (core i runs mix[i mod len(mix)]; a
// one-workload mix shares RunCtx's slot), and its sampling report
// (non-nil exactly when the runner's Sampling is enabled). A cell with no
// key (an Options.Sources override) runs uncached.
func (r *Runner) entry(ctx context.Context, mix []*synth.Workload, dp core.DesignPoint, opt core.Options) (StoreEntry, error) {
	cell := r.cell(mix, dp, opt)
	key, ok := cell.Key()
	if !ok {
		return r.simulate(ctx, cell)
	}
	for {
		r.mu.Lock()
		e, leader := r.cache[key]
		if !leader {
			e = &cacheEntry{done: make(chan struct{})}
			r.cache[key] = e
			r.mu.Unlock()
			e.e, e.err = r.simulate(ctx, cell)
			if e.err != nil {
				r.mu.Lock()
				delete(r.cache, key)
				r.mu.Unlock()
			}
			close(e.done)
			return e.e, e.err
		}
		r.mu.Unlock()
		select {
		case <-e.done:
			if isCancellation(e.err) && ctx.Err() == nil {
				continue // the leader was cancelled, we weren't: retry
			}
			return e.e, e.err
		case <-ctx.Done():
			return StoreEntry{}, ctx.Err()
		}
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ProgressEvent describes one completed simulation cell, with its fields
// separate so the serving layer can serialize it (SSE, JSON logs) and the
// CLIs can print it (String).
type ProgressEvent struct {
	Mix     string  `json:"mix"`
	Design  string  `json:"design"`
	IPC     float64 `json:"ipc"`
	BTBMPKI float64 `json:"btb_mpki"`
	L1IMPKI float64 `json:"l1i_mpki"`
}

// CellProgress is the progress event of cell c finished with stats st.
func CellProgress(c CellSpec, st *frontend.Stats) ProgressEvent {
	return ProgressEvent{
		Mix: MixName(c.Mix), Design: c.Design.String(),
		IPC: st.IPC(), BTBMPKI: st.BTBMPKI(), L1IMPKI: st.L1IMPKI(),
	}
}

// String formats the event as one human-readable progress line.
func (e ProgressEvent) String() string {
	return fmt.Sprintf("%-16s %-18s IPC=%.3f btbMPKI=%5.1f l1iMPKI=%5.1f",
		e.Mix, e.Design, e.IPC, e.BTBMPKI, e.L1IMPKI)
}

// simulate runs one cell uncached by the memo through Execute, with the
// runner's store, and reports it — a store hit emits the same progress
// event a live run would, and a live run's event follows its store write,
// so an observer that has seen a cell reported knows the cell is durable.
// The grid already spends the goroutine budget on concurrent cells, so a
// cell fast-forwards on its CellShare of it — 1 at the default worker
// count — instead of on GOMAXPROCS workers of its own.
func (r *Runner) simulate(ctx context.Context, cell CellSpec) (StoreEntry, error) {
	e, err := Execute(ctx, cell, CellShare(r.workers()), r.Store)
	if err != nil {
		return StoreEntry{}, err
	}
	if r.OnProgress != nil {
		r.progressMu.Lock()
		r.OnProgress(CellProgress(cell, e.Stats))
		r.progressMu.Unlock()
	}
	return e, nil
}

// options returns the default options at the runner's scale.
func (r *Runner) options() core.Options {
	opt := core.DefaultOptions()
	opt.Cores = r.Scale.Cores
	return opt
}
