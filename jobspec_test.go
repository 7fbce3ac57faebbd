package confluence

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"confluence/internal/experiments"
	"confluence/internal/store"
)

func TestParseJobSpecRoundTrip(t *testing.T) {
	seed := uint64(0x901d)
	in := &JobSpec{
		Kind:     KindPoint,
		Workload: "OLTP-DB2",
		Profile:  &ProfileTweak{Functions: 520, RequestTypes: 6, Concurrency: 6, Seed: &seed},
		Design:   "Confluence",
		Cores:    2, WarmupInstr: 30_000, MeasureInstr: 60_000,
		Parallelism: 2, Priority: 3,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the spec:\nin:  %+v\nout: %+v", in, out)
	}
}

// malformedSpecs are bodies the strict decoder must reject; a non-empty
// field must appear in the error (a removed field is named by it).
var malformedSpecs = []struct{ name, body, field string }{
	{"unknown top-level field", `{"design":"Base1K","workload":"DSS-Qrys","typo_field":1}`, "typo_field"},
	{"unknown profile field", `{"design":"Base1K","workload":"DSS-Qrys","profile":{"seeds":7}}`, "seeds"},
	{"trailing data", `{"design":"Base1K","workload":"DSS-Qrys"} extra`, ""},
	{"second JSON object", `{"design":"Base1K","workload":"DSS-Qrys"}{}`, ""},
	{"not an object", `[1,2,3]`, ""},
	{"removed bound-weave depth", `{"design":"Base1K","workload":"DSS-Qrys","epoch_blocks":8}`, "epoch_blocks"},
	{"repeated sweep workload", `{"kind":"sweep","workloads":["DSS-Qrys","KeyValue","DSS-Qrys"],"designs":["Base1K"]}`, ""},
	{"repeated sweep design", `{"kind":"sweep","designs":["Base1K","Ideal","Base1K"]}`, ""},
	{"repeated mixstudy design", `{"kind":"mixstudy","mix":["DSS-Qrys","KeyValue"],"designs":["Ideal","Ideal"]}`, ""},
	{"mix wider than the CMP", `{"mix":["DSS-Qrys","KeyValue","OLTP-DB2"],"design":"Base1K","cores":2}`, ""},
	{"mixstudy wider than the CMP", `{"kind":"mixstudy","mix":["DSS-Qrys","KeyValue","OLTP-DB2"],"cores":2}`, ""},
	{"removed epoch_blocks 0", `{"design":"Base1K","workload":"DSS-Qrys","epoch_blocks":0}`, "epoch_blocks"},
	{"removed epoch_blocks 1", `{"design":"Base1K","workload":"DSS-Qrys","epoch_blocks":1}`, "epoch_blocks"},
	{"removed in-run worker count", `{"design":"Base1K","workload":"DSS-Qrys","intra_parallelism":2}`, "intra_parallelism"},
}

func TestParseJobSpecStrictness(t *testing.T) {
	for _, c := range malformedSpecs {
		_, err := ParseJobSpec([]byte(c.body))
		switch {
		case err == nil:
			t.Errorf("%s: accepted %s", c.name, c.body)
		case !strings.Contains(err.Error(), c.field):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.field)
		}
	}
}

// FuzzParseJobSpec drives the strict decoder with arbitrary bytes. It
// must never panic, and a spec it accepts must re-marshal and re-parse to
// the same spec. Equality is compared on the encoded form, the one JSON
// can express: it does not tell a nil list from an empty one.
func FuzzParseJobSpec(f *testing.F) {
	seed := uint64(0x901d)
	for _, s := range []JobSpec{
		{Kind: KindPoint, Workload: "OLTP-DB2", Design: "Confluence", Cores: 2, WarmupInstr: 30_000, MeasureInstr: 60_000, Parallelism: 2, Priority: 3,
			Profile: &ProfileTweak{Functions: 520, RequestTypes: 6, Concurrency: 6, Seed: &seed}},
		{Mix: []string{"DSS-Qrys", "KeyValue"}, Design: "Base1K", NoWarmup: true},
		{Kind: KindSweep, Workloads: []string{"DSS-Qrys", "KeyValue"}, Designs: []string{"Base1K", "Ideal"}},
		{Kind: KindMixStudy, Mix: []string{"DSS-Qrys", "KeyValue"}, Parallelism: 2},
		{Workload: "DSS-Qrys", Design: "Base1K", SampleWindowInstr: 6000, SamplePeriodInstr: 60_000, SampleWindows: 8, SampleWindowWarmupInstr: 3000, SampleJitterSeed: 1},
		{TraceDir: "capture", Design: "Base1K"},
		{Workload: "DSS-Qrys", Design: "Base1K", Profile: &ProfileTweak{Functions: -5}},
		{Kind: KindSweep, Design: "Base1K", Designs: []string{"Ideal"}},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range malformedSpecs {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseJobSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseJobSpec(enc)
		if err != nil {
			t.Fatalf("re-parse of an accepted spec failed: %v\n%s", err, enc)
		}
		if again, _ := json.Marshal(back); string(again) != string(enc) {
			t.Fatalf("round trip changed the spec:\nfirst:  %s\nsecond: %s", enc, again)
		}
	})
}

func TestJobSpecValidate(t *testing.T) {
	cases := map[string]JobSpec{
		"unknown workload":       {Workload: "SAP-HANA", Design: "Base1K"},
		"unknown design":         {Workload: "DSS-Qrys", Design: "Base9K"},
		"unknown kind":           {Kind: "batch", Workload: "DSS-Qrys", Design: "Base1K"},
		"point without design":   {Workload: "DSS-Qrys"},
		"point without work":     {Design: "Base1K"},
		"workload and mix":       {Workload: "DSS-Qrys", Mix: []string{"KeyValue"}, Design: "Base1K"},
		"point with sweep axes":  {Workload: "DSS-Qrys", Design: "Base1K", Designs: []string{"Ideal"}},
		"sweep without designs":  {Kind: KindSweep},
		"sweep with point axes":  {Kind: KindSweep, Design: "Base1K", Designs: []string{"Ideal"}},
		"mixstudy without mix":   {Kind: KindMixStudy},
		"mixstudy with trace":    {Kind: KindMixStudy, Mix: []string{"DSS-Qrys"}, TraceDir: "x"},
		"mix wider than cores":   {Mix: []string{"DSS-Qrys", "KeyValue"}, Design: "Base1K", Cores: 1},
		"study wider than cores": {Kind: KindMixStudy, Mix: []string{"DSS-Qrys", "KeyValue"}, Cores: 1},
		"negative cores":         {Workload: "DSS-Qrys", Design: "Base1K", Cores: -1},
		"negative tweak":         {Workload: "DSS-Qrys", Design: "Base1K", Profile: &ProfileTweak{Functions: -5}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	ok := JobSpec{Workload: "DSS-Qrys", Design: "Base1K"}
	if err := ok.Validate(); err != nil {
		t.Errorf("minimal point spec rejected: %v", err)
	}
	if ok.NormKind() != KindPoint {
		t.Errorf("empty kind normalizes to %q", ok.NormKind())
	}
}

// TestJobSpecConfig checks the spec→Config mapping, including the
// profile tweak and mix workload sharing.
func TestJobSpecConfig(t *testing.T) {
	seed := uint64(7)
	spec := &JobSpec{
		Mix:     []string{"DSS-Qrys", "KeyValue", "DSS-Qrys"},
		Profile: &ProfileTweak{Concurrency: 3, Seed: &seed},
		Design:  "Confluence",
		Cores:   4, NoWarmup: true, MeasureInstr: 9_000,
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Design != Confluence || cfg.Cores != 4 || !cfg.NoWarmup || cfg.MeasureInstr != 9_000 {
		t.Fatalf("config shape = %+v", cfg)
	}
	if len(cfg.Mix) != 3 {
		t.Fatalf("mix expanded to %d workloads", len(cfg.Mix))
	}
	if cfg.Mix[0] != cfg.Mix[2] {
		t.Error("repeated mix names built distinct workloads")
	}
	for _, w := range cfg.Mix {
		if w.Prof.Concurrency != 3 || w.Prof.Seed != 7 {
			t.Errorf("tweak not applied: %+v", w.Prof)
		}
	}
}

// TestGenerateCells checks the generation of a mixstudy's cells: every
// workload gets its program, in mix order, and repeated names share one
// generated workload across all cells.
func TestGenerateCells(t *testing.T) {
	spec := &JobSpec{
		Kind: KindMixStudy, Mix: []string{"DSS-Qrys", "KeyValue", "DSS-Qrys"},
		Designs: []string{"Confluence"}, Cores: 3,
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateCells(cells); err != nil {
		t.Fatal(err)
	}
	mix := cells[0].Cell.Mix
	if len(mix) != 3 || mix[0].Prof.Name != "DSS-Qrys" || mix[1].Prof.Name != "KeyValue" {
		t.Fatalf("mix cell runs %s", experiments.MixName(mix))
	}
	if mix[0] != mix[2] {
		t.Error("repeated mix names built distinct workloads")
	}
	for i, c := range cells {
		for _, w := range c.Cell.Mix {
			if w.Prog == nil {
				t.Errorf("cell %d: %s has no program", i, w.Prof.Name)
			}
			if w.Prof.Name == "DSS-Qrys" && w != mix[0] {
				t.Errorf("cell %d: DSS-Qrys generated again", i)
			}
		}
	}
	if _, err := (&JobSpec{Kind: KindMixStudy}).Cells(); err == nil {
		t.Error("mixstudy without a mix expanded")
	}
}

// TestJobSpecConfigsSweep checks sweep expansion: workload-major cross
// product, defaulting to the paper suite.
func TestJobSpecConfigsSweep(t *testing.T) {
	spec := &JobSpec{
		Kind:      KindSweep,
		Workloads: []string{"DSS-Qrys", "KeyValue"},
		Designs:   []string{"Base1K", "Confluence"},
	}
	cfgs, err := spec.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("sweep expanded to %d cells, want 4", len(cfgs))
	}
	order := make([]string, len(cfgs))
	for i, c := range cfgs {
		order[i] = c.Workload.Prof.Name + "/" + c.Design.String()
	}
	want := "DSS-Qrys/Base1K DSS-Qrys/Confluence KeyValue/Base1K KeyValue/Confluence"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("sweep order %q, want %q (workload-major)", got, want)
	}
	if cfgs[0].Workload != cfgs[1].Workload {
		t.Error("sweep rebuilt the same workload per design")
	}

	defaulted := &JobSpec{Kind: KindSweep, Designs: []string{"Base1K"}}
	cfgs, err = defaulted.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != len(PaperWorkloadNames()) {
		t.Errorf("defaulted sweep has %d cells, want the paper suite's %d", len(cfgs), len(PaperWorkloadNames()))
	}
}

// TestSpecSamplingRoundTrip pins the sampled-execution plan through the
// path a fleet cell takes: job spec → JSON (the cell's payload) →
// JobSpec → Cells must preserve every Sampling field (a dropped field
// would silently run a different — or exact — plan on a remote worker).
func TestSpecSamplingRoundTrip(t *testing.T) {
	plan := Sampling{WindowInstr: 500, PeriodInstr: 6000, Windows: 10, WindowWarmupInstr: 250, JitterSeed: 7}
	spec := &JobSpec{
		Kind: KindSweep, Workloads: []string{"OLTP-DB2"}, Designs: []string{"Confluence"},
		Cores: 2, WarmupInstr: 30_000, MeasureInstr: 60_000,
		SampleWindowInstr: plan.WindowInstr, SamplePeriodInstr: plan.PeriodInstr, SampleWindows: plan.Windows,
		SampleWindowWarmupInstr: plan.WindowWarmupInstr, SampleJitterSeed: plan.JitterSeed,
	}
	mixstudy := &JobSpec{
		Kind: KindMixStudy, Mix: []string{"OLTP-DB2", "KeyValue"}, Designs: []string{"Confluence"},
		Cores: spec.Cores, WarmupInstr: spec.WarmupInstr, MeasureInstr: spec.MeasureInstr,
		SampleWindowInstr: plan.WindowInstr, SamplePeriodInstr: plan.PeriodInstr, SampleWindows: plan.Windows,
		SampleWindowWarmupInstr: plan.WindowWarmupInstr, SampleJitterSeed: plan.JitterSeed,
	}
	for _, spec := range []*JobSpec{spec, mixstudy} {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"sample_window_instr", "sample_period_instr", "sample_windows", "sample_window_warmup_instr", "sample_jitter_seed"} {
			if !strings.Contains(string(data), want) {
				t.Errorf("marshalled %s spec missing %q:\n%s", spec.NormKind(), want, data)
			}
		}
		parsed, err := ParseJobSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := parsed.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			if c.Cell.Sampling != plan {
				t.Errorf("%s cell %d: round-tripped sampling plan differs: %+v vs %+v", spec.NormKind(), i, c.Cell.Sampling, plan)
			}
		}
		// The exact plan must stay exactly representable: no sample_* keys.
		exact := *spec
		exact.SampleWindowInstr, exact.SamplePeriodInstr, exact.SampleWindows = 0, 0, 0
		exact.SampleWindowWarmupInstr, exact.SampleJitterSeed = 0, 0
		if data, _ := json.Marshal(&exact); strings.Contains(string(data), "sample_") {
			t.Errorf("exact-mode %s spec leaks sample_* fields:\n%s", spec.NormKind(), data)
		}
	}
}

// TestJobSpecCells pins the one job-to-cell expansion: for every kind of
// point and sweep spec, each cell's key is the key RunCtx derives from
// the generated config (Configs) and the key of the cell itself, and its
// mix and design are the config's; a mixstudy's cells are exactly the
// cells Runner.MixStudyFor runs for the same study.
func TestJobSpecCells(t *testing.T) {
	src, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	capture := t.TempDir()
	if err := CaptureTrace(src, capture, 1, 20_000); err != nil {
		t.Fatal(err)
	}
	seed := uint64(0x5eed)
	shape := func(s JobSpec) *JobSpec {
		s.Cores, s.NoWarmup, s.MeasureInstr = 3, true, 10_000
		return &s
	}
	for name, spec := range map[string]*JobSpec{
		"point":   shape(JobSpec{Workload: "DSS-Qrys", Design: "Base1K", Priority: 4, Parallelism: 3}),
		"mix":     shape(JobSpec{Mix: []string{"DSS-Qrys", "KeyValue", "DSS-Qrys"}, Design: "Confluence"}),
		"sweep":   shape(JobSpec{Kind: KindSweep, Workloads: []string{"KeyValue", "DSS-Qrys"}, Designs: []string{"Base1K", "Ideal"}}),
		"tweaked": shape(JobSpec{Workload: "OLTP-DB2", Design: "Base1K", Profile: &ProfileTweak{Functions: 520, Concurrency: 6, Seed: &seed}}),
		"sampled": shape(JobSpec{Kind: KindSweep, Workloads: []string{"DSS-Qrys"}, Designs: []string{"Base1K"},
			SampleWindowInstr: 1000, SamplePeriodInstr: 5000, SampleWindows: 2}),
		"trace only":     shape(JobSpec{TraceDir: capture, Design: "Base1K"}),
		"trace workload": shape(JobSpec{Workload: "DSS-Qrys", TraceDir: capture, Design: "Base1K"}),
	} {
		cells, err := spec.Cells()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfgs, err := spec.Configs()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cells) != len(cfgs) {
			t.Fatalf("%s: %d cells, %d configs", name, len(cells), len(cfgs))
		}
		keys := map[string]bool{}
		for i, c := range cells {
			key, ok := ConfigStoreKey(cfgs[i])
			if !ok || key != c.Key {
				t.Errorf("%s cell %d: key %.12s, generated config derives %.12s", name, i, c.Key, key)
			}
			keys[c.Key] = true
			if key, _ := c.Cell.Key(); key != c.Key {
				t.Errorf("%s cell %d: the cell itself derives %.12s, want %.12s", name, i, key, c.Key)
			}
			mix := cfgs[i].Mix
			if len(mix) == 0 {
				mix = []*Workload{cfgs[i].Workload}
			}
			if got, want := experiments.MixName(c.Cell.Mix), experiments.MixName(mix); got != want || c.Cell.Design != cfgs[i].Design {
				t.Errorf("%s cell %d: %s/%s, config is %s/%s", name, i, got, c.Cell.Design, want, cfgs[i].Design)
			}
			for _, w := range c.Cell.Mix {
				if w.Prog != nil {
					t.Errorf("%s cell %d: naming the cell generated %s", name, i, w.Prof.Name)
				}
			}
		}
		if len(keys) != len(cells) {
			t.Errorf("%s: %d cells share %d keys", name, len(cells), len(keys))
		}
	}

	sweep := shape(JobSpec{Kind: KindSweep, Workloads: []string{"KeyValue", "DSS-Qrys"}, Designs: []string{"Base1K", "Ideal"}})
	cells, _ := sweep.Cells()
	var order []string
	for _, c := range cells {
		order = append(order, experiments.MixName(c.Cell.Mix)+"/"+c.Cell.Design.String())
	}
	if got, want := strings.Join(order, " "), "KeyValue/Base1K KeyValue/Ideal DSS-Qrys/Base1K DSS-Qrys/Ideal"; got != want {
		t.Errorf("sweep cell order %q, want %q (workload-major)", got, want)
	}

	// A mixstudy's cells are the cells the Runner plans for the same
	// study: running it with a store leaves exactly their keys behind.
	study := shape(JobSpec{Kind: KindMixStudy, Mix: []string{"DSS-Qrys", "KeyValue"}, Designs: []string{"Confluence", "PhantomBTB+FDP"}})
	cells, err = study.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Per design: shared and private mix cells (Confluence only) and two
	// baselines.
	if len(cells) != 4+3 {
		t.Fatalf("mixstudy expanded to %d cells, want 7", len(cells))
	}
	var mix []*Workload
	for _, name := range study.Mix {
		w, err := BuildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, w)
	}
	st := store.Open(t.TempDir())
	r := experiments.NewRunnerFor(study.Scale(), nil)
	r.Workers, r.Store = 1, st
	if _, err := r.MixStudyFor(context.Background(), [][]*Workload{mix}, []DesignPoint{Confluence, PhantomFDP}); err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if !st.Has(c.Key) {
			t.Errorf("mixstudy cell %d (%s/%s private=%v): key %.12s is not a cell the runner ran",
				i, experiments.MixName(c.Cell.Mix), c.Cell.Design, c.Cell.Opt.HistoryPerCore, c.Key)
		}
	}
	if n := st.Len(); n != len(cells) {
		t.Errorf("the runner stored %d cells, the spec names %d", n, len(cells))
	}
}

// TestDesignNameRegistry pins the name↔design mapping the serialized
// specs depend on.
func TestDesignNameRegistry(t *testing.T) {
	names := DesignNames()
	if len(names) < 10 {
		t.Fatalf("DesignNames lists %d designs", len(names))
	}
	for _, n := range names {
		dp, ok := DesignByName(n)
		if !ok {
			t.Errorf("DesignByName(%q) missed", n)
			continue
		}
		if dp.String() != n {
			t.Errorf("DesignByName(%q) = %v", n, dp)
		}
	}
	if _, ok := DesignByName("Base9K"); ok {
		t.Error("unknown design resolved")
	}
}
