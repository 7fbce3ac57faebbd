package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"confluence/internal/synth"
	"confluence/internal/trace"
)

var probeTestScale = Scale{Name: "tiny", Cores: 2, Warmup: 100_000, Measure: 150_000}

// TestProbeReusesFigure6Cells: the probe's cells are Figure 6's cells, so
// after Figure 6 it simulates nothing, and its rows carry exactly the
// memoized stats and Figure 6's per-workload speedups.
func TestProbeReusesFigure6Cells(t *testing.T) {
	r := NewRunnerFor(probeTestScale, []*synth.Workload{detWorkload(t)})
	points, err := r.Figure6(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	r.OnProgress = func(ProgressEvent) { events++ }
	rows, err := r.Probe(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if events != 0 {
		t.Errorf("probe after Figure 6 simulated %d cells, want 0", events)
	}
	if len(rows) != 1 {
		t.Fatalf("%d probe rows, want 1", len(rows))
	}
	w, row := r.Workloads[0], rows[0]
	if len(row.Cells) != len(Figure6Designs) {
		t.Fatalf("%d design cells, want %d", len(row.Cells), len(Figure6Designs))
	}
	for j, dp := range Figure6Designs {
		e := row.Cells[j]
		st, err := r.RunCtx(t.Context(), w, dp, r.options())
		if err != nil {
			t.Fatal(err)
		}
		if e.Stats != st {
			t.Errorf("%v: probe stats are not Figure 6's memoized cell", dp)
		}
		speedup := e.Stats.IPC() / row.Cells[0].Stats.IPC()
		if want := points[j].PerWorkload[w.Prof.Name]; points[j].Design != dp || speedup != want {
			t.Errorf("%v: probe speedup %v, Figure 6 %v (%v)", dp, speedup, want, points[j].Design)
		}
		if e.Sampled != nil {
			t.Errorf("%v: exact probe carries a sampling report", dp)
		}
	}
	if events != 0 {
		t.Errorf("reading Figure 6's cells back simulated %d cells", events)
	}

	c := row.Char
	if c == nil {
		t.Fatal("live workload has no characterization")
	}
	var sum float64
	for _, p := range c.LayerPct {
		sum += p
	}
	if len(c.LayerPct) != w.Prof.Layers || math.Abs(sum-100) > 1e-6 {
		t.Errorf("layer shares %v: want %d layers summing to 100%%", c.LayerPct, w.Prof.Layers)
	}
	if c.Funcs != len(w.Prog.Funcs()) || c.FarReusePKI <= 0 {
		t.Errorf("implausible characterization %+v", c)
	}
	tab := ProbeTable(rows)
	for _, want := range []string{"far-reuse blocks/kilo-instr", "instr by layer: L0=", "== Probe: " + w.Prof.Name + " =="} {
		if !strings.Contains(tab, want) {
			t.Errorf("probe table lacks %q:\n%s", want, tab)
		}
	}
	for _, dp := range Figure6Designs {
		if !strings.Contains(tab, dp.String()) {
			t.Errorf("probe table lacks design %v:\n%s", dp, tab)
		}
	}
}

// TestProbeReplayMatchesLive: a capture replayed with its source
// workload probes to the same design rows as the live workload — the
// replay bit-identity TestReplayEquivalence pins for single runs — while
// the capture's TraceDir keeps the two in separate memo slots.
func TestProbeReplayMatchesLive(t *testing.T) {
	live := detWorkload(t)
	dir := t.TempDir()
	// Enough per core that the replay never wraps.
	capInstr := probeTestScale.Warmup + probeTestScale.Measure + 50_000
	for i := 0; i < probeTestScale.Cores; i++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("core-%03d.trace", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := trace.Capture(f, trace.NewExecutor(live, trace.CoreSeed(live.Prof.Seed, i)), capInstr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	replay := detWorkload(t)
	replay.TraceDir = dir

	r := NewRunnerFor(probeTestScale, []*synth.Workload{live, replay})
	events := 0
	r.OnProgress = func(ProgressEvent) { events++ }
	rows, err := r.Probe(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if events != 2*len(Figure6Designs) {
		t.Errorf("simulated %d cells, want %d: live and replay must not share memo slots", events, 2*len(Figure6Designs))
	}
	if rows[0].TraceDir != "" || rows[1].TraceDir != dir {
		t.Errorf("row trace dirs %q, %q; want \"\", %q", rows[0].TraceDir, rows[1].TraceDir, dir)
	}
	for j, dp := range Figure6Designs {
		l, p := rows[0].Cells[j], rows[1].Cells[j]
		if l.Stats == p.Stats {
			t.Errorf("%v: live and replay share one memoized result", dp)
		}
		if *l.Stats != *p.Stats {
			t.Errorf("%v: replay diverged from live:\n  live   %+v\n  replay %+v", dp, *l.Stats, *p.Stats)
		}
	}
	if !strings.Contains(ProbeTable(rows), "replaying "+dir) {
		t.Error("probe table does not name the replayed capture")
	}
}
