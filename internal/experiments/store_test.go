package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/store"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

var storeTestScale = Scale{Name: "tiny", Cores: 2, Warmup: 100_000, Measure: 150_000}

func storeTestRunner(t *testing.T, s *store.Store) *Runner {
	t.Helper()
	r := NewRunnerFor(storeTestScale, []*synth.Workload{detWorkload(t)})
	r.Store = s
	return r
}

// TestStoreResumeDeterminism is the tentpole contract: a grid killed
// mid-sweep and re-run against the same store resumes from the completed
// cells and produces results bit-identical to an uninterrupted run. Each
// Runner here stands in for one process (fresh memo cache); only the
// store directory is shared.
func TestStoreResumeDeterminism(t *testing.T) {
	s := store.Open(t.TempDir())
	designs := []core.DesignPoint{core.Base1K, core.TwoLevelSHIFT, core.Confluence, core.Ideal}

	// "Process" 1: start the grid, get killed after the first completed
	// cell. The context is cancelled from the progress callback, which
	// fires after the cell's store write — exactly the window a SIGKILL
	// between cells hits.
	interrupted := storeTestRunner(t, s)
	ctx, cancel := context.WithCancel(t.Context())
	interrupted.OnProgress = func(ProgressEvent) { cancel() }
	if _, err := interrupted.Grid(designs).Execute(ctx); err == nil {
		t.Fatal("interrupted grid ran to completion; cancellation never landed")
	}
	if _, _, writes := s.Counters(); writes == 0 {
		t.Fatal("no cell was persisted before the interruption")
	}

	// "Process" 2: re-run the whole grid against the same store.
	resumed := storeTestRunner(t, s)
	got, err := resumed.Grid(designs).Execute(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _ := s.Counters()
	if hits == 0 {
		t.Error("resumed grid never hit the store: completed cells re-simulated")
	}

	// Reference: the same grid with no store at all.
	fresh := NewRunnerFor(storeTestScale, []*synth.Workload{detWorkload(t)})
	want, err := fresh.Grid(designs).Execute(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cell counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Errorf("cell %d diverged between resumed and uninterrupted runs:\n  %+v\nvs\n  %+v",
				i, *got[i], *want[i])
		}
	}
}

// TestStoreHitEmitsProgress pins the observability contract: a cell served
// from the store reports the same progress line a live simulation would,
// so resumed sweeps show every cell.
func TestStoreHitEmitsProgress(t *testing.T) {
	s := store.Open(t.TempDir())
	warm := storeTestRunner(t, s)
	if _, err := warm.RunCtx(t.Context(), warm.Workloads[0], core.Base1K, warm.options()); err != nil {
		t.Fatal(err)
	}

	var liveLines, storedLines []string
	warm2 := storeTestRunner(t, s)
	warm2.OnProgress = func(e ProgressEvent) { storedLines = append(storedLines, e.String()) }
	if _, err := warm2.RunCtx(t.Context(), warm2.Workloads[0], core.Base1K, warm2.options()); err != nil {
		t.Fatal(err)
	}
	live := NewRunnerFor(storeTestScale, []*synth.Workload{detWorkload(t)})
	live.OnProgress = func(e ProgressEvent) { liveLines = append(liveLines, e.String()) }
	if _, err := live.RunCtx(t.Context(), live.Workloads[0], core.Base1K, live.options()); err != nil {
		t.Fatal(err)
	}
	if len(storedLines) != 1 || len(liveLines) != 1 || storedLines[0] != liveLines[0] {
		t.Errorf("store-hit progress diverges from live progress:\n  stored: %q\n  live:   %q", storedLines, liveLines)
	}
}

// TestConcurrentRunnersConverge races two independent Runners (two
// "processes") over the same grid and store: both must succeed, and the
// store must end with exactly one valid entry per cell.
func TestConcurrentRunnersConverge(t *testing.T) {
	s := store.Open(t.TempDir())
	designs := []core.DesignPoint{core.Base1K, core.Confluence}
	results := make([][]*frontend.Stats, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		r := storeTestRunner(t, s)
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			stats, err := r.Grid(designs).Execute(context.Background())
			if err != nil {
				t.Errorf("runner %d: %v", i, err)
				return
			}
			results[i] = stats
		}(i, r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range results[0] {
		if *results[0][i] != *results[1][i] {
			t.Errorf("cell %d diverged between racing runners", i)
		}
	}
	if n := s.Len(); n != len(designs) {
		t.Errorf("store holds %d entries after convergence, want %d", n, len(designs))
	}
	// A third runner must serve the whole grid from the store.
	replay := storeTestRunner(t, s)
	h0, _, _ := s.Counters()
	if _, err := replay.Grid(designs).Execute(t.Context()); err != nil {
		t.Fatal(err)
	}
	h1, _, _ := s.Counters()
	if int(h1-h0) != len(designs) {
		t.Errorf("replay hit the store %d times, want %d", h1-h0, len(designs))
	}
}

// TestCellStoreKeyIdentity pins what is — and is not — part of a cell's
// durable identity.
func TestCellStoreKeyIdentity(t *testing.T) {
	w := detWorkload(t)
	mix := []*synth.Workload{w}
	base := core.DefaultOptions()
	base.Cores = 2
	key := func(opt core.Options, dp core.DesignPoint) string {
		k, ok := CellSpec{Mix: mix, Design: dp, Opt: opt, Warmup: 100_000, Measure: 150_000}.Key()
		if !ok {
			t.Fatalf("unexpectedly unkeyable: %+v", opt)
		}
		return k
	}

	ref := key(base, core.Base1K)

	// Zero-valued sentinels and their explicit defaults are one cell.
	sparse := core.Options{Cores: 2}
	if key(sparse, core.Base1K) != ref {
		t.Error("zero-valued options and explicit defaults hash to different keys")
	}
	// Results-changing knobs must change the key.
	for name, opt := range map[string]core.Options{
		"Cores":          {Cores: 4},
		"HistoryPerCore": func() core.Options { o := base; o.HistoryPerCore = true; return o }(),
		"Shift.Lookahead": func() core.Options {
			o := base
			o.Shift.Lookahead = base.Shift.Lookahead + 1
			return o
		}(),
	} {
		if key(opt, core.Base1K) == ref {
			t.Errorf("%s change kept the same store key", name)
		}
	}
	if key(base, core.Confluence) == ref {
		t.Error("design point not part of the store key")
	}
	if k, _ := (CellSpec{Mix: mix, Design: core.Base1K, Opt: base, Warmup: 100_000, Measure: 200_000}).Key(); k == ref {
		t.Error("measure count not part of the store key")
	}
}

// TestCellStoreKeySkipsSources pins the escape hatch: an arbitrary source
// provider is opaque code, so such cells bypass the store entirely.
func TestCellStoreKeySkipsSources(t *testing.T) {
	mix := []*synth.Workload{detWorkload(t)}
	opt := core.DefaultOptions()
	opt.Cores = 2
	opt.Sources = func(int) (trace.Source, error) { return nil, nil }
	if _, ok := (CellSpec{Mix: mix, Design: core.Base1K, Opt: opt, Warmup: 100_000, Measure: 150_000}).Key(); ok {
		t.Error("a cell with an Options.Sources override got a store key")
	}
}

// TestDecodeStoreEntryRejectsGarbage: a payload that is not a complete
// entry (schema drift, hand-edited file) must read as a miss, not a
// partially-populated result.
func TestDecodeStoreEntryRejectsGarbage(t *testing.T) {
	for _, payload := range []string{"", "not json", "{}", `{"per_core": []}`} {
		if _, ok := DecodeStoreEntry([]byte(payload)); ok {
			t.Errorf("DecodeStoreEntry(%q) accepted", payload)
		}
	}
}

// TestCellKeysPinned holds literal keys computed before the cell identity
// moved onto CellSpec. Existing stores, warm snapshots and fleet
// manifests stay valid only while these hold; moving one means bumping
// ResultVersion or WarmVersion on purpose.
func TestCellKeysPinned(t *testing.T) {
	exact := CellSpec{
		Mix:    []*synth.Workload{{Prof: synth.OLTPDB2()}},
		Design: core.Base1K, Opt: core.Options{Cores: 4},
		Warmup: 800_000, Measure: 800_000,
	}
	sampled := exact
	sampled.Design = core.Confluence
	sampled.Sampling = core.AutoSampling(800_000)
	for _, c := range []struct {
		name string
		key  func() (string, bool)
		want string
	}{
		{"exact Base1K", exact.Key, "164658e03281c3470205d6a21d2bddd0b1702a519ed8d5d9849db6ef5022d13a"},
		{"sampled Confluence", sampled.Key, "1ad526895569c1451aad0f99b65082ff9d6380bae1fe75f5138a6a5971fa5fc8"},
		{"warm snapshot", sampled.WarmKey, "5f71c45eaeb8687782db17add59be5381fb60b6e12ea7a9e289e7da17c76dfff"},
	} {
		if got, ok := c.key(); !ok || got != c.want {
			t.Errorf("%s key = %s (ok %v), pinned %s", c.name, got, ok, c.want)
		}
	}
}

// TestCellKeyCoversEveryField: every field of core.Options and
// core.Sampling either moves CellSpec.Key or sits on the exclusion list
// with its reason, so a field added later cannot silently share a cache
// slot with the cell it differs from.
func TestCellKeyCoversEveryField(t *testing.T) {
	excluded := map[string]string{
		"Opt.Sources": "opaque code: a cell with a source override has no key at all",
	}
	cell := CellSpec{
		Mix:    []*synth.Workload{{Prof: synth.OLTPDB2()}},
		Design: core.Confluence, Opt: core.DefaultOptions(),
		Warmup: 10_000, Measure: 20_000, Sampling: core.AutoSampling(20_000),
	}
	key := func() string {
		t.Helper()
		k, ok := cell.Key()
		if !ok {
			t.Fatal("base cell has no key")
		}
		return k
	}
	ref := key()
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if _, ok := excluded[path]; ok {
			return
		}
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float()*2 + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: kind %v has no perturbation here; add one, or exclude the field with its reason", path, v.Kind())
		}
		if key() == ref {
			t.Errorf("cells differing only in %s share a key", path)
		}
		v.Set(old)
	}
	walk("Opt", reflect.ValueOf(&cell.Opt).Elem())
	walk("Sampling", reflect.ValueOf(&cell.Sampling).Elem())
	if key() != ref {
		t.Fatal("perturbations leaked into the base cell")
	}
}
