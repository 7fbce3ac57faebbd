package confluence

import (
	"testing"

	"confluence/internal/store"
)

// TestGoldenStatsThroughStore pins the durable store's bit-identity
// contract against the same golden file the live simulator answers to: a
// grid run with Config.StoreDir populates the store and matches
// testdata/golden.json, and a second pass — served entirely from disk —
// reproduces every metric bit-for-bit. This is the determinism anchor across
// process boundaries: stored bytes are the simulation's bytes.
func TestGoldenStatsThroughStore(t *testing.T) {
	dir := t.TempDir()
	withStore := func(cfg *Config) { cfg.StoreDir = dir }

	first := goldenRunWith(t, withStore)
	verifyGolden(t, goldenPath, first)

	s := store.Open(dir)
	hitsBefore, _, _ := s.Counters()
	second := goldenRunWith(t, withStore)
	hitsAfter, _, _ := s.Counters()
	if got, want := int(hitsAfter-hitsBefore), len(goldenDesigns()); got != want {
		t.Errorf("second pass hit the store %d times, want %d (every cell)", got, want)
	}
	for name, a := range first {
		b, ok := second[name]
		if !ok {
			t.Errorf("%s missing from the store-served pass", name)
			continue
		}
		// Exact float equality, not the golden file's JSON round-trip
		// tolerance: a stored result IS the live result.
		if a != b {
			t.Errorf("%s: store-served metrics diverge from live: %+v vs %+v", name, b, a)
		}
	}
	verifyGolden(t, goldenPath, second)
}

// TestStoreServedResultComplete pins that a store hit reconstructs the
// full Result — per-core stats and the area-model outputs included, not
// just the aggregate.
func TestStoreServedResultComplete(t *testing.T) {
	w := goldenWorkload(t)
	cfg := Config{
		Workload: w, Design: Confluence, Cores: 2,
		WarmupInstr: 30_000, MeasureInstr: 60_000,
		StoreDir: t.TempDir(),
	}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if served.OverheadMM2 != live.OverheadMM2 || served.RelativeArea != live.RelativeArea {
		t.Errorf("area outputs diverge: served (%v, %v) vs live (%v, %v)",
			served.OverheadMM2, served.RelativeArea, live.OverheadMM2, live.RelativeArea)
	}
	if len(served.PerCore) != len(live.PerCore) {
		t.Fatalf("per-core count: %d vs %d", len(served.PerCore), len(live.PerCore))
	}
	for i := range live.PerCore {
		if *served.PerCore[i] != *live.PerCore[i] {
			t.Errorf("core %d stats diverge through the store", i)
		}
	}
	if *served.Stats != *live.Stats {
		t.Error("aggregate stats diverge through the store")
	}
}
