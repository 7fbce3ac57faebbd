package experiments

import (
	"context"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/parallel"
	"confluence/internal/synth"
)

// Plan collects the cells a figure or table needs, deduplicating them
// through the runner's cache key, and executes them on a bounded worker
// pool into the runner's memo cache. Results come back in insertion order
// (or from the memo, as Runner.table reads them), so tables never depend
// on completion order.
type Plan struct {
	r     *Runner
	cells []CellSpec // self-contained and individually seeded: any subset can run concurrently
	seen  map[string]struct{}
}

// NewPlan starts an empty plan on the runner.
func (r *Runner) NewPlan() *Plan {
	return &Plan{r: r, seen: make(map[string]struct{})}
}

// Grid returns a plan covering the full cross product of the runner's
// workloads and the given design points at default options — the common
// shape of the paper's figures.
func (r *Runner) Grid(designs []core.DesignPoint) *Plan { return r.plan(r.defaults(designs...)) }

// plan schedules every (workload, column) cell.
func (r *Runner) plan(cols []column) *Plan {
	p := r.NewPlan()
	for _, w := range r.Workloads {
		for _, c := range cols {
			p.Add(w, c.dp, c.opt)
		}
	}
	return p
}

// Add schedules one homogeneous cell, dropping duplicates of cells already
// planned.
func (p *Plan) Add(w *synth.Workload, dp core.DesignPoint, opt core.Options) {
	p.AddMix([]*synth.Workload{w}, dp, opt)
}

// AddMix schedules one consolidated cell (core i runs mix[i mod len(mix)]),
// dropping duplicates of cells already planned (by CellSpec.Key; a cell
// with no key is always scheduled).
func (p *Plan) AddMix(mix []*synth.Workload, dp core.DesignPoint, opt core.Options) {
	c := p.r.cell(mix, dp, opt)
	if key, ok := c.Key(); ok {
		if _, dup := p.seen[key]; dup {
			return
		}
		p.seen[key] = struct{}{}
	}
	p.cells = append(p.cells, c)
}

// Len returns the number of distinct cells planned.
func (p *Plan) Len() int { return len(p.cells) }

// Execute simulates every planned cell on at most Runner.Workers
// goroutines, populating the runner's memo cache, and returns the results
// in cell insertion order — the deterministic, completion-order-independent
// view of the grid. The first simulation error cancels the remaining cells
// and is returned.
func (p *Plan) Execute(ctx context.Context) ([]*frontend.Stats, error) {
	out := make([]*frontend.Stats, len(p.cells))
	err := parallel.ForEach(ctx, p.r.workers(), len(p.cells),
		func(ctx context.Context, i int) error {
			c := p.cells[i]
			e, err := p.r.entry(ctx, c.Mix, c.Design, c.Opt)
			out[i] = e.Stats
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// column is one design point under specific options: one column of a
// figure's (workload × column) grid.
type column struct {
	dp  core.DesignPoint
	opt core.Options
}

// defaults returns one column per design at the runner's default options.
func (r *Runner) defaults(designs ...core.DesignPoint) []column {
	cols := make([]column, len(designs))
	for i, dp := range designs {
		cols[i] = column{dp, r.options()}
	}
	return cols
}

// table executes every (workload, column) cell on the worker pool and
// returns the entries indexed [workload][column], parallel to r.Workloads
// and cols — the one place the figures read their results from.
func (r *Runner) table(ctx context.Context, cols []column) ([][]StoreEntry, error) {
	if _, err := r.plan(cols).Execute(ctx); err != nil {
		return nil, err
	}
	g := make([][]StoreEntry, len(r.Workloads))
	for i, w := range r.Workloads {
		for _, c := range cols {
			e, err := r.entry(ctx, []*synth.Workload{w}, c.dp, c.opt)
			if err != nil {
				return nil, err
			}
			g[i] = append(g[i], e)
		}
	}
	return g, nil
}
