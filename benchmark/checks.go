package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"confluence"
	"confluence/internal/synth"
)

// The golden checks run a small fixed-seed grid and compare its IPC and
// MPKIs with pinned numbers, so a change that moves the model — in both
// the detailed and the fast-forward paths alike — is caught even though
// every self-consistency check would still pass. Exact runs are pinned by
// the repository's own golden file; sampled runs, which it does not
// cover, by a file kept next to this benchmark (rewrite it with
// -update-golden after an intended model change).
const (
	exactGoldenPath   = "testdata/golden.json"
	sampledGoldenPath = "benchmark/golden_sampled.json"
)

// goldenDesigns are the grid's designs plus the Phantom and two-level BTB
// designs the grid leaves out.
var goldenDesigns = []string{"Base1K", "FDP", "PhantomBTB+FDP", "2LevelBTB+SHIFT", "Confluence"}

type goldenMetrics struct {
	IPC     float64 `json:"ipc"`
	L1IMPKI float64 `json:"l1i_mpki"`
	BTBMPKI float64 `json:"btb_mpki"`
}

// goldenRun simulates the golden grid: the repository golden test's
// workload and shape, or for sampled runs twice its length under the
// automatic plan, so that warm-up and the gaps between windows
// fast-forward.
func goldenRun(ctx context.Context, sampled bool) (map[string]goldenMetrics, error) {
	p := synth.OLTPDB2()
	p.Functions = 520
	p.RequestTypes = 6
	p.Concurrency = 6
	p.Seed = 0x901d
	w, err := synth.Build(p)
	if err != nil {
		return nil, err
	}
	out := map[string]goldenMetrics{}
	for _, name := range goldenDesigns {
		dp, ok := confluence.DesignByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown design %q", name)
		}
		cfg := confluence.Config{Workload: w, Design: dp, Cores: 2, WarmupInstr: 30_000, MeasureInstr: 60_000}
		if sampled {
			cfg.WarmupInstr, cfg.MeasureInstr = 60_000, 120_000
			cfg.Sampling = confluence.AutoSampling(cfg.MeasureInstr)
		}
		res, err := confluence.RunCtx(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = goldenMetrics{res.Stats.IPC(), res.Stats.L1IMPKI(), res.Stats.BTBMPKI()}
	}
	return out, nil
}

// checkGolden compares the golden grid with its pinned numbers.
func checkGolden(ctx context.Context, r *runner, sampled bool) {
	path := exactGoldenPath
	if sampled {
		path = sampledGoldenPath
	}
	got, err := goldenRun(ctx, sampled)
	if err != nil {
		r.problem("golden run: %v", err)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		r.problem("golden: %v", err)
		return
	}
	var want map[string]goldenMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		r.problem("golden: %s: %v", path, err)
		return
	}
	for _, name := range goldenDesigns {
		w, ok := want[name]
		if !ok {
			r.problem("golden: %s pins no %s", path, name)
			continue
		}
		if g := got[name]; !near(g.IPC, w.IPC) || !near(g.L1IMPKI, w.L1IMPKI) || !near(g.BTBMPKI, w.BTBMPKI) {
			r.problem("golden %s: IPC %.9g, L1-I MPKI %.9g, BTB MPKI %.9g; %s pins %.9g, %.9g, %.9g",
				name, g.IPC, g.L1IMPKI, g.BTBMPKI, path, w.IPC, w.L1IMPKI, w.BTBMPKI)
		}
	}
}

// writeSampledGolden pins the current sampled golden grid.
func writeSampledGolden() error {
	got, err := goldenRun(context.Background(), true)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(sampledGoldenPath, append(data, '\n'), 0o644)
}

// fingerprint is the canonical byte form of a cell's measured outcome:
// two runs of one cell must produce equal fingerprints (the determinism
// contract), whichever path produced them.
func fingerprint(st *confluence.Stats, perCore []*confluence.Stats) string {
	b, err := json.Marshal(struct {
		Stats   *confluence.Stats
		PerCore []*confluence.Stats
	}{st, perCore})
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}

// checkStats verifies the invariants every measured cell must satisfy:
// enough instructions retired, a plausible IPC, and per-core statistics
// that sum to the aggregate.
func checkStats(st *confluence.Stats, perCore []*confluence.Stats, minInstr uint64) error {
	if st == nil || len(perCore) == 0 {
		return fmt.Errorf("missing stats")
	}
	if st.Instructions < minInstr {
		return fmt.Errorf("retired %d instructions, want at least %d", st.Instructions, minInstr)
	}
	if ipc := st.IPC(); !(ipc > 0 && ipc <= 8) {
		return fmt.Errorf("implausible IPC %v", ipc)
	}
	var sum confluence.Stats
	for _, c := range perCore {
		sum.Instructions += c.Instructions
		sum.Cycles += c.Cycles
		sum.BTBMisses += c.BTBMisses
		sum.L1IMisses += c.L1IMisses
		sum.PrefIssued += c.PrefIssued
	}
	if sum.Instructions != st.Instructions || sum.BTBMisses != st.BTBMisses ||
		sum.L1IMisses != st.L1IMisses || sum.PrefIssued != st.PrefIssued || !near(sum.Cycles, st.Cycles) {
		return fmt.Errorf("per-core stats do not sum to the aggregate")
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// modelTally sums the simulated model's event counts over a run's cells,
// for the per-layer view of the modelled frontend.
type modelTally struct {
	instr, l1iMisses, btbMisses, prefIssued, prefUseful uint64
	cycles                                              float64
	covered, detailed                                   float64 // simulated instructions per core
	sampledCells, reusedCells                           int
}

func (m *modelTally) add(st *confluence.Stats, covered, detailed float64) {
	m.instr += st.Instructions
	m.cycles += st.Cycles
	m.l1iMisses += st.L1IMisses
	m.btbMisses += st.BTBMisses
	m.prefIssued += st.PrefIssued
	m.prefUseful += st.PrefUseful
	m.covered += covered
	m.detailed += detailed
}

func (m *modelTally) metrics() map[string]metric {
	perKilo := func(n uint64) float64 { return float64(n) * 1000 / float64(m.instr) }
	reuse := 0.0
	if m.sampledCells > 0 {
		reuse = 100 * float64(m.reusedCells) / float64(m.sampledCells)
	}
	accuracy := 0.0
	if m.prefIssued > 0 {
		accuracy = 100 * float64(m.prefUseful) / float64(m.prefIssued)
	}
	return map[string]metric{
		"model.ipc":                 {float64(m.instr) / m.cycles, "instr/cycle"},
		"model.l1i_mpki":            {perKilo(m.l1iMisses), "mpki"},
		"model.btb_mpki":            {perKilo(m.btbMisses), "mpki"},
		"model.prefetch_accuracy":   {accuracy, "%"},
		"sampling.detail_reduction": {m.covered / m.detailed, "x"},
		"sampling.snapshot_reuse":   {reuse, "%"},
	}
}

// wallTally splits the latency users see into the time units waited in a
// queue, the time spent in transport (HTTP round trips and event delivery),
// and the rest, service.
type wallTally struct {
	latency, queue, transport float64 // milliseconds
}

func (w *wallTally) metrics() map[string]metric {
	return map[string]metric{
		"wall.queue":     {100 * w.queue / w.latency, "%"},
		"wall.transport": {100 * w.transport / w.latency, "%"},
	}
}
