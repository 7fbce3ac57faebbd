package confluence

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"confluence/internal/experiments"
	"confluence/internal/synth"
)

// JobSpec is a JSON round-trippable description of a run — the unit of
// work the serving layer (`confluence-serve`) queues and the
// `confluence-sim -job` flag executes. It names everything a Config holds
// by value rather than by pointer: workloads by profile name (plus an
// optional ProfileTweak for seed/sizing overrides), the design point by
// its String form, and the trace capture by directory. Decoding is strict
// (unknown fields are rejected, see ParseJobSpec) so stored specs cannot
// silently rot as the schema evolves.
//
// Kind selects the job shape:
//
//   - "point" (the default): one simulation — Workload or Mix × Design,
//     mapping 1:1 onto a Config (see Config/Configs).
//   - "sweep": the cross product Workloads × Designs, one simulation per
//     cell (Workloads defaults to the paper's five-workload suite).
//   - "mixstudy": the consolidation study over Mix — every design in
//     Designs (default MixStudyDesigns) with the shared-vs-private
//     history ablation and per-workload homogeneous baselines.
//
// Every kind expands into its simulation cells through Cells, and every
// execution path (the serving layer, `confluence-sim -job`, fleets) runs
// those cells and nothing else.
type JobSpec struct {
	Kind string `json:"kind,omitempty"`

	// Workload references. Point jobs set Workload (homogeneous) or Mix
	// (consolidated, core i runs Mix[i mod len]); sweep jobs set
	// Workloads (the workload axis); mixstudy jobs set Mix.
	Workload  string   `json:"workload,omitempty"`
	Mix       []string `json:"mix,omitempty"`
	Workloads []string `json:"workloads,omitempty"`

	// Design references, by DesignPoint.String() name (see DesignNames).
	// Point jobs set Design; sweep jobs set Designs; mixstudy jobs may
	// set Designs (default: the study's canonical three).
	Design  string   `json:"design,omitempty"`
	Designs []string `json:"designs,omitempty"`

	// TraceDir, when non-empty, replays the capture in that directory
	// (Config.TraceDir semantics). With no Workload named, the capture
	// runs under default calibration (WorkloadFromTrace).
	TraceDir string `json:"trace_dir,omitempty"`

	// Profile optionally overrides generator parameters of every named
	// workload — most importantly the seed, so one spec can pin a
	// specific generated program.
	Profile *ProfileTweak `json:"profile,omitempty"`

	// Simulation shape (Config semantics, including the zero-means-
	// default sentinels for Cores/WarmupInstr/MeasureInstr).
	Cores        int    `json:"cores,omitempty"`
	WarmupInstr  uint64 `json:"warmup_instr,omitempty"`
	MeasureInstr uint64 `json:"measure_instr,omitempty"`
	NoWarmup     bool   `json:"no_warmup,omitempty"`

	// Parallelism knobs (Config semantics).
	Parallelism      int `json:"parallelism,omitempty"`
	IntraParallelism int `json:"intra_parallelism,omitempty"`
	// EpochBlocks is accepted for compatibility and has no effect: 0 and
	// 1 name the exact mode every job runs in, and larger values (the
	// removed bound-weave approximation) are rejected.
	EpochBlocks int `json:"epoch_blocks,omitempty"`

	// Sampled execution (Config.Sampling semantics): the fields map
	// onto the Sampling plan field for field; all zero runs exact.
	SampleWindowInstr       uint64 `json:"sample_window_instr,omitempty"`
	SamplePeriodInstr       uint64 `json:"sample_period_instr,omitempty"`
	SampleWindows           int    `json:"sample_windows,omitempty"`
	SampleWindowWarmupInstr uint64 `json:"sample_window_warmup_instr,omitempty"`
	SampleJitterSeed        uint64 `json:"sample_jitter_seed,omitempty"`

	// Priority orders the serving layer's job queue (higher runs first,
	// FIFO within a priority). Direct execution ignores it.
	Priority int `json:"priority,omitempty"`
}

// ProfileTweak overrides select generator parameters of a named workload
// profile. Zero fields (nil Seed) keep the profile's own value.
type ProfileTweak struct {
	Functions    int     `json:"functions,omitempty"`
	RequestTypes int     `json:"request_types,omitempty"`
	Concurrency  int     `json:"concurrency,omitempty"`
	Seed         *uint64 `json:"seed,omitempty"`
}

// Job kinds (JobSpec.Kind; empty means KindPoint).
const (
	KindPoint    = "point"
	KindSweep    = "sweep"
	KindMixStudy = "mixstudy"
)

// NormKind returns the spec's kind with the empty-string default applied.
func (s *JobSpec) NormKind() string {
	if s.Kind == "" {
		return KindPoint
	}
	return s.Kind
}

// ParseJobSpec decodes and validates a JobSpec from JSON. Decoding is
// strict: unknown fields, trailing garbage, and validation failures are
// all errors, so a spec that decodes is a spec the engine can run.
func ParseJobSpec(data []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("confluence: decoding job spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("confluence: job spec has trailing data after the JSON object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's internal consistency: a known kind, known
// workload and design names, the right reference fields for the kind, and
// non-negative knobs. It does not touch the filesystem — TraceDir is
// validated when the job builds its workloads.
func (s *JobSpec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("confluence: invalid job spec: "+format, args...)
	}
	for _, name := range append([]string{s.Workload}, append(append([]string{}, s.Mix...), s.Workloads...)...) {
		if name == "" {
			continue
		}
		if _, ok := synth.ProfileByName(name); !ok {
			return bad("unknown workload %q (have: %s)", name, strings.Join(WorkloadNames(), ", "))
		}
	}
	for _, name := range append([]string{s.Design}, s.Designs...) {
		if name == "" {
			continue
		}
		if _, ok := DesignByName(name); !ok {
			return bad("unknown design %q (have: %s)", name, strings.Join(DesignNames(), ", "))
		}
	}
	// A sweep's axes are sets: without repeats a spec expands to at most
	// every workload × every design. Mix keeps its repeats (each one
	// assigns cores).
	if name, ok := repeated(s.Workloads); ok {
		return bad("workloads names %q more than once", name)
	}
	if name, ok := repeated(s.Designs); ok {
		return bad("designs names %q more than once", name)
	}
	if s.Cores < 0 || s.Parallelism < 0 || s.IntraParallelism < 0 || s.EpochBlocks < 0 {
		return bad("cores/parallelism/intra_parallelism/epoch_blocks must be non-negative")
	}
	if s.EpochBlocks > 1 {
		return bad("epoch_blocks > 1 (bound-weave K>1) was removed; omit the field")
	}
	if s.SampleWindows < 0 {
		return bad("sample_windows must be non-negative")
	}
	if err := s.sampling().Validate(); err != nil {
		return bad("%v", err)
	}
	if s.Profile != nil && (s.Profile.Functions < 0 || s.Profile.RequestTypes < 0 || s.Profile.Concurrency < 0) {
		return bad("profile overrides must be non-negative")
	}
	// Core i runs mix[i mod len]: a workload without a core is not part
	// of the consolidation, and the system refuses to assemble it.
	if cores := s.Scale().Cores; len(s.Mix) > cores {
		return bad("mix names %d workloads for %d cores", len(s.Mix), cores)
	}
	switch s.NormKind() {
	case KindPoint:
		if len(s.Workloads) > 0 || len(s.Designs) > 0 {
			return bad("point jobs use workload/mix and design, not the plural sweep axes")
		}
		if s.Design == "" {
			return bad("point jobs require a design")
		}
		if s.Workload != "" && len(s.Mix) > 0 {
			return bad("workload and mix are mutually exclusive")
		}
		if s.Workload == "" && len(s.Mix) == 0 && s.TraceDir == "" {
			return bad("point jobs require a workload, a mix, or a trace_dir")
		}
	case KindSweep:
		if s.Workload != "" || len(s.Mix) > 0 || s.Design != "" {
			return bad("sweep jobs use workloads/designs, not the singular point fields")
		}
		if len(s.Designs) == 0 {
			return bad("sweep jobs require designs")
		}
	case KindMixStudy:
		if s.Workload != "" || s.Design != "" || len(s.Workloads) > 0 {
			return bad("mixstudy jobs use mix (and optionally designs)")
		}
		if len(s.Mix) == 0 {
			return bad("mixstudy jobs require a mix")
		}
		if s.TraceDir != "" {
			return bad("mixstudy jobs do not replay traces")
		}
	default:
		return bad("unknown kind %q (have: %s, %s, %s)", s.Kind, KindPoint, KindSweep, KindMixStudy)
	}
	return nil
}

// repeated returns the first name that occurs twice in names.
func repeated(names []string) (string, bool) {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return n, true
		}
		seen[n] = true
	}
	return "", false
}

// profile returns the named workload's generator profile with the spec's
// overrides applied.
func (s *JobSpec) profile(name string) (synth.Profile, error) {
	prof, ok := synth.ProfileByName(name)
	if !ok {
		return synth.Profile{}, fmt.Errorf("confluence: unknown workload %q", name)
	}
	if t := s.Profile; t != nil {
		if t.Functions > 0 {
			prof.Functions = t.Functions
		}
		if t.RequestTypes > 0 {
			prof.RequestTypes = t.RequestTypes
		}
		if t.Concurrency > 0 {
			prof.Concurrency = t.Concurrency
		}
		if t.Seed != nil {
			prof.Seed = *t.Seed
		}
	}
	return prof, nil
}

// generated is a workload source that takes each named workload, with the
// spec's overrides, from the process's program table.
func (s *JobSpec) generated(name string) (*Workload, error) {
	w, err := s.profileOnly(name)
	if err != nil {
		return nil, err
	}
	return generated(w)
}

// GenerateCells makes cells ready to run in place: every workload Cells
// named by its profile alone gets its program from the process's program
// table, which builds a profile's program only when no live copy exists
// (see programTable). The workloads it hands out are shared with every
// other caller and must not be modified. Execution paths call it per
// cell, and only for cells the store cannot answer.
func GenerateCells(cells []JobCell) error {
	for i := range cells {
		mix := make([]*Workload, len(cells[i].Cell.Mix))
		for j, w := range cells[i].Cell.Mix {
			var err error
			if mix[j], err = generated(w); err != nil {
				return err
			}
		}
		cells[i].Cell.Mix = mix
	}
	return nil
}

// profileOnly is a workload source that generates nothing: each workload
// carries only its profile, which with the capture listing is all a cell
// key hashes (experiments.CellSpec.Key).
func (s *JobSpec) profileOnly(name string) (*Workload, error) {
	prof, err := s.profile(name)
	if err != nil {
		return nil, err
	}
	return &Workload{Prof: prof}, nil
}

// sampling assembles the spec's sampled-execution plan (zero = exact).
func (s *JobSpec) sampling() Sampling {
	return Sampling{
		WindowInstr:       s.SampleWindowInstr,
		PeriodInstr:       s.SamplePeriodInstr,
		Windows:           s.SampleWindows,
		WindowWarmupInstr: s.SampleWindowWarmupInstr,
		JitterSeed:        s.SampleJitterSeed,
	}
}

// baseConfig maps the spec's simulation-shape fields onto a Config
// (workloads and design still unset).
func (s *JobSpec) baseConfig() Config {
	return Config{
		Cores:            s.Cores,
		WarmupInstr:      s.WarmupInstr,
		MeasureInstr:     s.MeasureInstr,
		NoWarmup:         s.NoWarmup,
		TraceDir:         s.TraceDir,
		Parallelism:      s.Parallelism,
		IntraParallelism: s.IntraParallelism,
		Sampling:         s.sampling(),
	}
}

// Scale returns the spec's simulation shape — CMP width and per-core
// warmup/measure counts — with the zero-means-default sentinels resolved
// by the rules RunCtx applies to a Config.
func (s *JobSpec) Scale() experiments.Scale { return s.baseConfig().scale() }

// Config maps a point spec onto the Config it describes, taking its
// workloads from the program table (shared, read-only). Sweep and
// mixstudy specs expand to more than one simulation — use Cells, or
// Configs (sweep).
func (s *JobSpec) Config() (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	if s.NormKind() != KindPoint {
		return Config{}, fmt.Errorf("confluence: %s job spec does not map onto a single Config", s.NormKind())
	}
	return s.config(s.generated)
}

// config maps a validated point spec onto its Config, taking each named
// workload from workload.
func (s *JobSpec) config(workload func(name string) (*Workload, error)) (Config, error) {
	cfg := s.baseConfig()
	cfg.Design, _ = DesignByName(s.Design)
	var err error
	switch {
	case len(s.Mix) > 0:
		cfg.Mix = make([]*Workload, len(s.Mix))
		for i, name := range s.Mix {
			if cfg.Mix[i], err = workload(name); err != nil {
				return Config{}, err
			}
		}
	case s.Workload != "":
		cfg.Workload, err = workload(s.Workload)
	default: // trace-only replay under default calibration
		cfg.Workload, err = WorkloadFromTrace(s.TraceDir)
	}
	if err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// JobCell is one simulation of a job: its resolved cell, whose workloads
// carry only their profile, and the store key every execution path reads
// and writes for it.
type JobCell struct {
	Cell experiments.CellSpec
	Key  string
}

// Cells expands a spec into its simulations in canonical order: the
// point itself; the Workloads × Designs cross product of a sweep
// (workload-major, matching the figure runners' order; Workloads defaults
// to the paper's five-workload suite); or the cells of a mixstudy's
// consolidation study (MixStudy), the list Runner.MixStudyFor plans.
// Every cell is resolved the way RunCtx resolves a Config
// (ConfigCellSpec) over workloads that carry only their profile, so
// naming a job's cells generates no program.
func (s *JobSpec) Cells() ([]JobCell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var specs []experiments.CellSpec
	if s.NormKind() == KindMixStudy {
		study, err := s.MixStudy()
		if err != nil {
			return nil, err
		}
		specs = study.Cells()
	}
	for _, p := range s.points() {
		cell, err := p.cell()
		if err != nil {
			return nil, err
		}
		specs = append(specs, cell)
	}
	cells := make([]JobCell, len(specs))
	for i, c := range specs {
		key, ok := c.Key()
		if !ok {
			return nil, fmt.Errorf("confluence: job cell %d has no store key (unreadable capture directory?)", i)
		}
		cells[i] = JobCell{Cell: c, Key: key}
	}
	return cells, nil
}

// cell resolves the spec's own simulation as RunCtx resolves its Config
// (ConfigCellSpec), over workloads that carry only their profile.
func (s *JobSpec) cell() (experiments.CellSpec, error) {
	cfg, err := s.config(s.profileOnly)
	if err != nil {
		return experiments.CellSpec{}, err
	}
	return ConfigCellSpec(cfg)
}

// points lists a point or sweep spec's simulations as point specs, in
// Cells order (none for a mixstudy).
func (s *JobSpec) points() []JobSpec {
	switch s.NormKind() {
	case KindPoint:
		return []JobSpec{*s}
	case KindSweep:
		names := s.Workloads
		if len(names) == 0 {
			names = PaperWorkloadNames()
		}
		var specs []JobSpec
		for _, name := range names {
			for _, dn := range s.Designs {
				p := *s
				p.Kind, p.Workload, p.Design, p.Workloads, p.Designs = KindPoint, name, dn, nil, nil
				specs = append(specs, p)
			}
		}
		return specs
	}
	return nil
}

// MixStudy resolves a mixstudy spec into its consolidation study over
// workloads that carry only their profile: Mix on every design in Designs
// (default MixStudyDesigns), each cell shaped by the spec the way RunCtx
// shapes a Config. Its Cells are the spec's cells, and its Rows assemble
// their entries into the job's result.
func (s *JobSpec) MixStudy() (experiments.MixStudySpec, error) {
	if err := s.Validate(); err != nil {
		return experiments.MixStudySpec{}, err
	}
	if s.NormKind() != KindMixStudy {
		return experiments.MixStudySpec{}, fmt.Errorf("confluence: %s job spec is not a consolidation study", s.NormKind())
	}
	base, err := s.cell()
	if err != nil {
		return experiments.MixStudySpec{}, err
	}
	designs := experiments.MixStudyDesigns()
	if len(s.Designs) > 0 {
		designs = make([]DesignPoint, len(s.Designs))
		for i, name := range s.Designs {
			designs[i], _ = DesignByName(name)
		}
	}
	return experiments.MixStudySpec{Base: base, Mixes: [][]*Workload{base.Mix}, Designs: designs}, nil
}

// Configs expands a point or sweep spec into the ordered list of
// simulations it describes, one Config per cell of Cells, each named
// workload taken from the program table and so shared across cells and
// with every other caller holding it. A mixstudy's private-history cells
// have no point spec, so it does not expand to Configs.
func (s *JobSpec) Configs() ([]Config, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.NormKind() == KindMixStudy {
		return nil, fmt.Errorf("confluence: mixstudy job spec does not expand to Configs (use Cells)")
	}
	var cfgs []Config
	for _, p := range s.points() {
		cfg, err := p.config(p.generated)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}
