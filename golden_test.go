package confluence

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"confluence/internal/core"
	"confluence/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator output")

const goldenPath = "testdata/golden.json"

// goldenMetrics are the headline numbers pinned per design point.
type goldenMetrics struct {
	IPC     float64 `json:"ipc"`
	L1IMPKI float64 `json:"l1i_mpki"`
	BTBMPKI float64 `json:"btb_mpki"`
}

// goldenWorkload is the fixed-seed workload the golden run simulates. It
// must never change: the golden file pins its exact numbers.
func goldenWorkload(t *testing.T) *Workload {
	t.Helper()
	p := synth.OLTPDB2()
	p.Functions = 520
	p.RequestTypes = 6
	p.Concurrency = 6
	p.Seed = 0x901d
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// goldenDesigns lists every design point the golden file covers.
func goldenDesigns() []DesignPoint {
	return []DesignPoint{
		Base1K, FDP1K, PhantomFDP, TwoLevelFDP, TwoLevelSHIFT,
		Base1KSHIFT, PhantomSHIFT, Confluence, IdealBTBSHIFT, Ideal,
		core.AirCapacity, core.AirSpatial, core.AirPrefetch, core.SweepBTB,
	}
}

func goldenRun(t *testing.T) map[string]goldenMetrics {
	return goldenRunWith(t, nil)
}

// goldenRunWith runs the golden grid, letting tweak adjust each config
// before it runs (the store golden attaches a store there).
func goldenRunWith(t *testing.T, tweak func(*Config)) map[string]goldenMetrics {
	t.Helper()
	w := goldenWorkload(t)
	out := make(map[string]goldenMetrics)
	for _, dp := range goldenDesigns() {
		cfg := Config{
			Workload: w, Design: dp, Cores: 2,
			WarmupInstr: 30_000, MeasureInstr: 60_000,
		}
		if dp == core.SweepBTB {
			cfg.Options = core.DefaultOptions()
			cfg.Options.SweepBTBEntries = 2048
		}
		if tweak != nil {
			tweak(&cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", dp, err)
		}
		out[dp.String()] = goldenMetrics{
			IPC:     res.Stats.IPC(),
			L1IMPKI: res.Stats.L1IMPKI(),
			BTBMPKI: res.Stats.BTBMPKI(),
		}
	}
	return out
}

// TestGoldenStats pins IPC, L1-I MPKI, and BTB MPKI for every design point
// on a small fixed-seed workload against testdata/golden.json. The whole
// stack is deterministic, so any drift — a reordered RNG draw, a changed
// replacement decision, an off-by-one in the cycle accounting — fails this
// test. Refactors that intentionally change results regenerate the file
// with `go test -run TestGoldenStats -update ./`.
func TestGoldenStats(t *testing.T) {
	verifyGolden(t, goldenPath, goldenRun(t))
}

// verifyGolden compares got against the pinned file at path, or rewrites
// the file under -update.
func verifyGolden(t *testing.T, path string, got map[string]goldenMetrics) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d design points", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run 'TestGoldenStats|TestIntraKGoldenStats' -update ./` to create it)", err)
	}
	var want map[string]goldenMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("golden file pins %d designs, run produced %d", len(want), len(got))
	}
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: pinned in golden file but not produced (design removed? update the file)", name)
			continue
		}
		w := want[name]
		check := func(metric string, gv, wv float64) {
			// The run is bit-deterministic; the tolerance only absorbs the
			// float64 JSON round trip.
			if math.Abs(gv-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
				t.Errorf("%s: %s = %.12g, golden %.12g (drift — if intended, re-run with -update)",
					name, metric, gv, wv)
			}
		}
		check("IPC", g.IPC, w.IPC)
		check("L1-I MPKI", g.L1IMPKI, w.L1IMPKI)
		check("BTB MPKI", g.BTBMPKI, w.BTBMPKI)
	}
}
