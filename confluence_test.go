package confluence

import (
	"reflect"
	"strings"
	"testing"
)

func TestWorkloadNames(t *testing.T) {
	paper := PaperWorkloadNames()
	if len(paper) != 5 {
		t.Fatalf("paper suite lists %d workloads", len(paper))
	}
	names := WorkloadNames()
	if len(names) != 7 {
		t.Fatalf("extended suite lists %d workloads", len(names))
	}
	want := []string{"OLTP-DB2", "OLTP-Oracle", "DSS-Qrys", "Media-Streaming",
		"Web-Frontend", "KeyValue", "Microservices"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("workload %q missing", w)
		}
	}
	// The paper suite is a prefix of the extended listing.
	for i, n := range paper {
		if names[i] != n {
			t.Errorf("extended suite reorders paper workload %d: %q vs %q", i, names[i], n)
		}
	}
}

func TestBuildWorkloadUnknown(t *testing.T) {
	_, err := BuildWorkload("SAP-HANA")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "OLTP-DB2") {
		t.Errorf("error should list available workloads: %v", err)
	}
}

func TestRunRequiresWorkload(t *testing.T) {
	if _, err := Run(Config{Design: Confluence}); err == nil {
		t.Error("nil workload accepted")
	}
}

func TestRunWithDefaults(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workload: w, Design: Base1K, Cores: 2,
		WarmupInstr: 20_000, MeasureInstr: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IPC() <= 0 {
		t.Error("no IPC")
	}
	if res.RelativeArea != 1.0 {
		t.Errorf("baseline relative area = %v", res.RelativeArea)
	}
}

func TestCompare(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	// Note: Compare at default instruction counts would be slow; keep the
	// design list short and rely on the library defaults being modest.
	speedups, err := Compare(w, []DesignPoint{Base1K, Ideal}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if speedups[Base1K] != 1.0 {
		t.Errorf("baseline speedup = %v", speedups[Base1K])
	}
	if speedups[Ideal] <= 1.0 {
		t.Errorf("Ideal speedup = %v", speedups[Ideal])
	}
	if _, err := Compare(w, nil, 2); err == nil {
		t.Error("empty design list accepted")
	}
}

func TestExperimentsFactory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full suite")
	}
	r, err := Experiments("small")
	if err != nil {
		t.Fatal(err)
	}
	if r.Scale.Name != "small" {
		t.Errorf("scale = %q", r.Scale.Name)
	}
	r2, err := Experiments("unknown")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Scale.Name != "default" {
		t.Errorf("fallback scale = %q", r2.Scale.Name)
	}
}

func TestRunMany(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	designs := []DesignPoint{Base1K, FDP1K, Confluence}
	cfgs := make([]Config, len(designs))
	for i, dp := range designs {
		cfgs[i] = Config{
			Workload: w, Design: dp, Cores: 2,
			WarmupInstr: 20_000, MeasureInstr: 50_000,
		}
	}
	res, err := RunMany(t.Context(), 4, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(designs) {
		t.Fatalf("got %d results", len(res))
	}
	// Results must come back in input order regardless of completion order.
	for i, dp := range designs {
		if res[i].Config.Design != dp {
			t.Errorf("result %d is %v, want %v", i, res[i].Config.Design, dp)
		}
		if res[i].Stats.IPC() <= 0 {
			t.Errorf("result %d has no IPC", i)
		}
	}
}

// TestRunManySplitsWorkersUnchangedResults: RunMany's concurrent cells
// take their share of the goroutine budget in place of an unset in-run
// worker count — an explicit one is kept — and neither the share nor the
// degree of concurrency moves a result: every cell equals a lone RunCtx of
// its config, Config included, sampled cells too.
func TestRunManySplitsWorkersUnchangedResults(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, dp := range []DesignPoint{Base1K, FDP1K, Confluence} {
		cfgs = append(cfgs, Config{Workload: w, Design: dp, Cores: 2, WarmupInstr: 20_000, MeasureInstr: 40_000})
	}
	cfgs[1].IntraParallelism = 2
	cfgs = append(cfgs, Config{Workload: w, Design: Base1K, Cores: 2, WarmupInstr: 20_000, MeasureInstr: 40_000,
		Sampling: Sampling{WindowInstr: 2000, PeriodInstr: 10_000, Windows: 3}})
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = RunCtx(t.Context(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, parallelism := range []int{1, 2, 4} {
		got, err := RunMany(t.Context(), parallelism, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("parallelism %d: cell %d differs from a lone run", parallelism, i)
			}
		}
	}
}

func TestRunManyPropagatesError(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Workload: w, Design: Base1K, Cores: 2, WarmupInstr: 20_000, MeasureInstr: 50_000},
		{Design: Confluence}, // nil workload: must fail the batch
	}
	if _, err := RunMany(t.Context(), 2, cfgs); err == nil {
		t.Error("nil workload accepted by RunMany")
	}
}

func TestCompareWithParallelism(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Workload: w, Cores: 2, Parallelism: 4,
		WarmupInstr: 20_000, MeasureInstr: 50_000,
	}
	speedups, err := CompareWith(t.Context(), base, []DesignPoint{Base1K, Ideal})
	if err != nil {
		t.Fatal(err)
	}
	if speedups[Base1K] != 1.0 {
		t.Errorf("baseline speedup = %v", speedups[Base1K])
	}
	if speedups[Ideal] <= 1.0 {
		t.Errorf("Ideal speedup = %v", speedups[Ideal])
	}
}

func TestDefaultParallelism(t *testing.T) {
	t.Setenv("REPRO_WORKERS", "5")
	if got := DefaultParallelism(); got != 5 {
		t.Errorf("DefaultParallelism with REPRO_WORKERS=5 = %d", got)
	}
}
