package experiments

import (
	"testing"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/synth"
)

// tinyRunner builds a single-workload runner at a very small scale so the
// full figure machinery can be exercised in unit tests.
func tinyRunner(t *testing.T) *Runner {
	t.Helper()
	// Big enough to thrash a 32KB L1-I and a 1K-entry BTB (the paper's
	// operating regime), small enough for unit tests.
	p := synth.OLTPDB2()
	p.Functions = 1100
	p.RequestTypes = 8
	p.Concurrency = 8
	p.Seed = 12
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scale{Name: "tiny", Cores: 2, Warmup: 200_000, Measure: 300_000}
	return NewRunnerFor(sc, []*synth.Workload{w})
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "default", "paper"} {
		if _, ok := ScaleByName(name); !ok {
			t.Errorf("scale %q missing", name)
		}
	}
	if _, ok := ScaleByName("galactic"); ok {
		t.Error("unknown scale resolved")
	}
}

func TestScaleFromEnv(t *testing.T) {
	t.Setenv("REPRO_SCALE", "small")
	if got := ScaleFromEnv(); got.Name != "small" {
		t.Errorf("ScaleFromEnv = %q", got.Name)
	}
	t.Setenv("REPRO_SCALE", "bogus")
	if got := ScaleFromEnv(); got.Name != "default" {
		t.Errorf("fallback = %q", got.Name)
	}
}

func TestRunCaching(t *testing.T) {
	r := tinyRunner(t)
	w := r.Workloads[0]
	a, err := r.RunDefault(w, core.Base1K)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunDefault(w, core.Base1K)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs not served from cache")
	}
	// Different options must not collide in the cache.
	opt := r.options()
	opt.SweepBTBEntries = 2048
	c1, err := r.Run(w, core.SweepBTB, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SweepBTBEntries = 4096
	c2, err := r.Run(w, core.SweepBTB, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("different sweep sizes collided in the cache")
	}
}

func TestFigure1ShapeDecreasing(t *testing.T) {
	r := tinyRunner(t)
	rows, err := r.Figure1(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].MPKI) != len(Figure1Sizes) {
		t.Fatalf("rows shape wrong: %+v", rows)
	}
	m := rows[0].MPKI
	// The curve must decrease substantially from 1K to 32K (Fig 1's shape).
	if m[len(m)-1] > m[0]*0.6 {
		t.Errorf("BTB MPKI barely decreases: %v", m)
	}
	for i := 1; i < len(m); i++ {
		if m[i] > m[i-1]*1.15 { // allow small noise, forbid real increases
			t.Errorf("MPKI increased with capacity: %v", m)
		}
	}
	if tab := Figure1Table(rows).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestTable2PlausibleDensity(t *testing.T) {
	r := tinyRunner(t)
	rows, err := r.Table2(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Static < 1.5 || row.Static > 6 {
		t.Errorf("static density %.2f implausible", row.Static)
	}
	if row.Dynamic <= 0 || row.Dynamic > row.Static {
		t.Errorf("dynamic density %.2f vs static %.2f: dynamic must be lower",
			row.Dynamic, row.Static)
	}
	if tab := Table2Table(rows).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestFigure6Ordering(t *testing.T) {
	r := tinyRunner(t)
	points, err := r.Figure6(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	perf := map[core.DesignPoint]float64{}
	areaOf := map[core.DesignPoint]float64{}
	for _, p := range points {
		perf[p.Design] = p.RelPerf
		areaOf[p.Design] = p.RelArea
	}
	// The paper's qualitative ordering.
	if perf[core.Ideal] < perf[core.Confluence] {
		t.Errorf("Ideal (%.3f) below Confluence (%.3f)", perf[core.Ideal], perf[core.Confluence])
	}
	if perf[core.Confluence] < perf[core.TwoLevelSHIFT]*0.99 {
		t.Errorf("Confluence (%.3f) below 2LevelBTB+SHIFT (%.3f)",
			perf[core.Confluence], perf[core.TwoLevelSHIFT])
	}
	if perf[core.TwoLevelSHIFT] < perf[core.FDP1K]*0.99 {
		t.Errorf("2LevelBTB+SHIFT (%.3f) below FDP (%.3f)",
			perf[core.TwoLevelSHIFT], perf[core.FDP1K])
	}
	// Confluence achieves its performance at a fraction of the two-level
	// area (the paper's headline).
	if areaOf[core.Confluence] >= areaOf[core.TwoLevelSHIFT] {
		t.Error("Confluence not cheaper than 2LevelBTB+SHIFT")
	}
	if tab := PerfAreaTable("t", points).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestFigure7ConfluenceNearIdealBTB(t *testing.T) {
	r := tinyRunner(t)
	rows, err := r.Figure7(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	sp := rows[0].Speedup
	if sp[core.Confluence] < sp[core.PhantomSHIFT]*0.98 {
		t.Errorf("Confluence (%.3f) below PhantomBTB (%.3f)",
			sp[core.Confluence], sp[core.PhantomSHIFT])
	}
	if sp[core.IdealBTBSHIFT] < 1.0 {
		t.Errorf("IdealBTB+SHIFT slower than 1K BTB+SHIFT: %.3f", sp[core.IdealBTBSHIFT])
	}
	if tab := Figure7Table(rows).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestFigure8CoverageDecomposes(t *testing.T) {
	r := tinyRunner(t)
	rows, err := r.Figure8(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	sum := row.Capacity + row.Spatial + row.Prefetch + row.BlockOrg
	if diff := sum - row.Total; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("increments (%.1f) don't sum to total (%.1f)", sum, row.Total)
	}
	if row.Total < 20 {
		t.Errorf("total AirBTB coverage only %.1f%%", row.Total)
	}
	if tab := Figure8Table(rows).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestFigure9Ordering(t *testing.T) {
	r := tinyRunner(t)
	rows, err := r.Figure9(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	// 16K conventional is the coverage ceiling; AirBTB approaches it;
	// PhantomBTB trails (the paper's Fig 9 ordering).
	if row.Conv16K < row.AirBTB-8 {
		t.Errorf("AirBTB (%.1f) implausibly above 16K BTB (%.1f)", row.AirBTB, row.Conv16K)
	}
	if row.AirBTB <= row.Phantom {
		t.Errorf("AirBTB (%.1f) below PhantomBTB (%.1f)", row.AirBTB, row.Phantom)
	}
	if tab := Figure9Table(rows).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestFigure10OverflowBufferMatters(t *testing.T) {
	r := tinyRunner(t)
	rows, err := r.Figure10(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	cov := rows[0].Coverage
	// B:3+OB:32 must beat B:3+OB:0 (the paper's reason for the buffer).
	if cov[1] <= cov[0] {
		t.Errorf("overflow buffer did not help: OB0=%.1f OB32=%.1f", cov[0], cov[1])
	}
	// B:4+OB:32 is the best configuration.
	if cov[3] < cov[1]-5 {
		t.Errorf("B:4,OB:32 (%.1f) well below B:3,OB:32 (%.1f)", cov[3], cov[1])
	}
	if tab := Figure10Table(rows).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestAblations(t *testing.T) {
	r := tinyRunner(t)
	rows, err := r.LookaheadSweep(t.Context(), []int{4, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	shared, err := r.SharedVsPrivateHistory(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != 2 {
		t.Fatalf("shared-vs-private rows = %d", len(shared))
	}
	if tab := AblationTable("t", rows).String(); len(tab) == 0 {
		t.Error("empty table")
	}
}

func TestNewRunnerBuildsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload suite build in -short mode")
	}
	r, err := NewRunner(Small, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 5 {
		t.Errorf("suite has %d workloads", len(r.Workloads))
	}
}

// TestMemoKeySeparatesEveryResultField: two cells that differ only in an
// option that changes results must not share a memo slot. Each variant
// below once collided with the base cell and was served its result.
func TestMemoKeySeparatesEveryResultField(t *testing.T) {
	p := synth.OLTPDB2()
	p.Functions = 200
	p.RequestTypes = 2
	p.Concurrency = 2
	p.Seed = 5
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	mix := []*synth.Workload{w}
	r := NewRunnerFor(Scale{Name: "memo", Cores: 1, Warmup: 10_000, Measure: 20_000}, mix)
	base := r.options()
	baseSampling := core.AutoSampling(r.Scale.Measure)
	run := func(dp core.DesignPoint, opt core.Options, sp core.Sampling) *frontend.Stats {
		t.Helper()
		r.Sampling = sp
		st, _, _, err := r.RunMixSampledCtx(t.Context(), mix, dp, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, v := range []struct {
		name string
		dp   core.DesignPoint
		opt  func(*core.Options)
		sp   func(*core.Sampling)
	}{
		{name: "Shift.HistoryEntries", dp: core.Confluence, opt: func(o *core.Options) { o.Shift.HistoryEntries /= 2 }},
		{name: "FDP.QueueDepth", dp: core.FDP1K, opt: func(o *core.Options) { o.FDP.QueueDepth++ }},
		{name: "FDP.CyclesPerBB", dp: core.FDP1K, opt: func(o *core.Options) { o.FDP.CyclesPerBB *= 2 }},
		{name: "Sampling.JitterSeed", dp: core.Base1K, sp: func(s *core.Sampling) { s.JitterSeed++ }},
	} {
		opt, sp := base, baseSampling
		if v.opt != nil {
			v.opt(&opt)
		}
		if v.sp != nil {
			v.sp(&sp)
		}
		if run(v.dp, base, baseSampling) == run(v.dp, opt, sp) {
			t.Errorf("cells differing only in %s share a memo slot", v.name)
		}
	}
}
