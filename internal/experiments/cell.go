package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"

	"confluence/internal/airbtb"
	"confluence/internal/core"
	"confluence/internal/fdp"
	"confluence/internal/frontend"
	"confluence/internal/shift"
	"confluence/internal/store"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// ResultVersion pins the simulation semantics a stored result was computed
// under. It is part of every cell's store key, exact and sampled alike, so
// bumping it invalidates the whole store at once. Bump it whenever a
// cell's result changes: when testdata/golden.json is regenerated (exact
// results) and when benchmark/golden_sampled.json is regenerated (sampled
// results). The golden files and the store make the same promise (these
// bytes are what this code computes), so they version together.
const ResultVersion = "confluence-results-v1"

// WarmVersion pins the warm-snapshot semantics (what state is captured
// and how fast-forward evolves it). It is part of every snapshot's store
// key; bump it whenever the fast-forward path or the snapshot layout
// changes. It keys no cell result: a change that moves sampled results
// bumps ResultVersion too.
const WarmVersion = "confluence-warm-v1"

// CellSpec is the resolved, canonical description of one simulation cell:
// the workload mix (core i runs Mix[i mod len(Mix)]), the capture
// directory replayed in place of every slot's own supply (TraceDir, as
// Config.TraceDir does), the design point, the assembly options, the
// per-core warmup/measure instruction counts, and the sampling plan (zero
// = exact). Every caching layer — the Runner's memo, the durable store,
// fleet manifests — names a cell by its Key, and Execute is the one path
// that runs it.
type CellSpec struct {
	Mix      []*synth.Workload
	TraceDir string
	Design   core.DesignPoint
	Opt      core.Options
	Warmup   uint64
	Measure  uint64
	Sampling core.Sampling
}

// cellKeyMaterial is the canonical serialization a cell's key is hashed
// from: everything that determines the cell's result, and nothing that
// cannot change it. In particular worker counts (Runner.Workers,
// Options.IntraWorkers) are absent — the determinism contract guarantees
// they never change results. optionsKey.EpochBlocks is always 1: it
// keeps the keys of the exact mode every cell runs in stable.
//
// Workloads appear as their full synth.Profile: generation is deterministic
// in the profile (synth.Build), so the profile is the workload's complete
// identity. A trace-replaying slot additionally carries its capture
// directory's file listing (names and sizes) — a cheap proxy for content;
// replacing a capture with a same-name same-size file is out of scope.
type cellKeyMaterial struct {
	Version   string          `json:"version"`
	Warmup    uint64          `json:"warmup"`
	Measure   uint64          `json:"measure"`
	Design    string          `json:"design"`
	Profiles  []synth.Profile `json:"profiles"`
	TraceDirs []traceDirKey   `json:"trace_dirs,omitempty"`
	Options   optionsKey      `json:"options"`
	// Sampling is nil for exact runs, so every pre-sampling key is
	// byte-stable; a sampled run is a different cell than the exact run
	// of the same configuration.
	Sampling *samplingKey `json:"sampling,omitempty"`
}

// samplingKey is the sampled-execution plan as key material.
type samplingKey struct {
	WindowInstr       uint64 `json:"window_instr"`
	PeriodInstr       uint64 `json:"period_instr"`
	Windows           int    `json:"windows"`
	WindowWarmupInstr uint64 `json:"window_warmup_instr,omitempty"`
	JitterSeed        uint64 `json:"jitter_seed,omitempty"`
}

// traceDirKey identifies one mix slot's replay capture.
type traceDirKey struct {
	Slot  int            `json:"slot"`
	Dir   string         `json:"dir"`
	Files []traceFileKey `json:"files"`
}

type traceFileKey struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// optionsKey is core.Options restricted to the result-determining fields
// (no IntraWorkers, no Sources), normalized so explicit defaults and
// zero-value sentinels hash identically.
type optionsKey struct {
	Cores           int           `json:"cores"`
	Air             airbtb.Config `json:"air"`
	Shift           shift.Config  `json:"shift"`
	FDP             fdp.Config    `json:"fdp"`
	SweepBTBEntries int           `json:"sweep_btb_entries"`
	HistoryPerCore  bool          `json:"history_per_core"`
	EpochBlocks     int           `json:"epoch_blocks"`
}

// warmKeyMaterial is the canonical serialization a warm-up snapshot's
// store key is hashed from: everything that determines the warm state at
// the first window boundary, and nothing that cannot change it. Design
// points collapse to their WarmClass — Base1K and FDP1K, differing only
// in timing machinery that fast-forward never touches, share snapshots —
// and pure timing knobs (prefetcher lookahead, worker counts) are
// absent: fast-forward always runs the exact serial schedule.
type warmKeyMaterial struct {
	Version        string          `json:"version"`
	Warmup         uint64          `json:"warmup"`
	Cores          int             `json:"cores"`
	Class          string          `json:"class"`
	Profiles       []synth.Profile `json:"profiles"`
	TraceDirs      []traceDirKey   `json:"trace_dirs,omitempty"`
	HistoryEntries int             `json:"history_entries,omitempty"` // shared SHIFT history size (LLC reservation + contents)
}

// Key derives the cell's identity: the Runner's memo slot, the durable
// store key, and the key fleet manifests carry. ok is false when the cell
// is not expressible as canonical key material — an Options.Sources
// override (arbitrary code feeds the cores) or an unreadable capture
// directory — and such a cell skips every cache.
func (c CellSpec) Key() (string, bool) {
	if c.Opt.Sources != nil {
		return "", false
	}
	opt := c.Opt.Normalized()
	m := cellKeyMaterial{
		Version: ResultVersion,
		Warmup:  c.Warmup,
		Measure: c.Measure,
		Design:  c.Design.String(),
		Options: optionsKey{
			Cores:           opt.Cores,
			Air:             opt.Air,
			Shift:           opt.Shift,
			FDP:             opt.FDP,
			SweepBTBEntries: opt.SweepBTBEntries,
			HistoryPerCore:  opt.HistoryPerCore,
			EpochBlocks:     1,
		},
	}
	if sp := c.Sampling; sp.Enabled() {
		m.Sampling = &samplingKey{
			WindowInstr:       sp.WindowInstr,
			PeriodInstr:       sp.PeriodInstr,
			Windows:           sp.Windows,
			WindowWarmupInstr: sp.WindowWarmupInstr,
			JitterSeed:        sp.JitterSeed,
		}
	}
	var ok bool
	if m.Profiles, m.TraceDirs, ok = c.workloadKeys(); !ok {
		return "", false
	}
	return hashKey(m)
}

// WarmKey derives the store key of the warm-up snapshot a sampled run of
// this cell captures and reuses. ok is false when snapshots do not apply:
// no warm-up, an Options.Sources override (opaque streams), per-core
// private histories (state the system cannot export), or an unreadable
// capture directory.
func (c CellSpec) WarmKey() (string, bool) {
	if c.Warmup == 0 || c.Opt.Sources != nil || c.Opt.HistoryPerCore {
		return "", false
	}
	opt := c.Opt.Normalized()
	m := warmKeyMaterial{
		Version: WarmVersion,
		Warmup:  c.Warmup,
		Cores:   opt.Cores,
		Class:   c.Design.WarmClass(opt),
	}
	if c.Design.UsesSHIFT() {
		m.HistoryEntries = opt.Shift.HistoryEntries
	}
	var ok bool
	if m.Profiles, m.TraceDirs, ok = c.workloadKeys(); !ok {
		return "", false
	}
	return hashKey(m)
}

// workloadKeys lists every mix slot's profile, plus the capture listing
// of each slot that replays one (TraceDir overriding the slot's own).
func (c CellSpec) workloadKeys() ([]synth.Profile, []traceDirKey, bool) {
	profiles := make([]synth.Profile, len(c.Mix))
	var dirs []traceDirKey
	for i, w := range c.Mix {
		profiles[i] = w.Prof
		dir := w.TraceDir
		if c.TraceDir != "" {
			dir = c.TraceDir
		}
		if dir == "" {
			continue
		}
		tk, ok := traceDirIdentity(i, dir)
		if !ok {
			return nil, nil, false
		}
		dirs = append(dirs, tk)
	}
	return profiles, dirs, true
}

func hashKey(material any) (string, bool) {
	data, err := json.Marshal(material)
	if err != nil {
		return "", false
	}
	return store.Key(data), true
}

// traceDirIdentity lists a capture directory's trace files as key material.
func traceDirIdentity(slot int, dir string) (traceDirKey, bool) {
	files, err := trace.TraceFiles(dir)
	if err != nil {
		return traceDirKey{}, false
	}
	tk := traceDirKey{Slot: slot, Dir: dir, Files: make([]traceFileKey, 0, len(files))}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return traceDirKey{}, false
		}
		tk.Files = append(tk.Files, traceFileKey{Name: filepath.Base(f), Size: info.Size()})
	}
	return tk, true
}

// StoreEntry is the payload stored per cell: the measured stats plus the
// area-model outputs, everything a Result needs beyond its Config. All
// fields are plain exported numbers, and Go's float64 JSON round trip is
// exact (shortest-representation encoding), so a decoded entry formats
// byte-identically to the live run it replaced.
type StoreEntry struct {
	Stats        *frontend.Stats   `json:"stats"`
	PerCore      []*frontend.Stats `json:"per_core"`
	OverheadMM2  float64           `json:"overhead_mm2"`
	RelativeArea float64           `json:"relative_area"`
	// Sampled carries the sampling report of a sampled cell (nil for
	// exact runs, and absent from their serialized form).
	Sampled *SampledReport `json:"sampled,omitempty"`
}

// EncodeStoreEntry serializes a cell result for Store.Put.
func EncodeStoreEntry(e StoreEntry) ([]byte, error) { return json.Marshal(e) }

// DecodeStoreEntry parses a stored payload. Malformed or incomplete
// payloads (a schema change without a ResultVersion bump, say) report ok =
// false, which callers treat as a store miss.
func DecodeStoreEntry(payload []byte) (StoreEntry, bool) {
	var e StoreEntry
	if err := json.Unmarshal(payload, &e); err != nil || e.Stats == nil {
		return StoreEntry{}, false
	}
	return e, true
}

// Stored returns the valid entry st holds under key, if any (none when st
// is nil).
func Stored(st *store.Store, key string) (StoreEntry, bool) {
	if st == nil {
		return StoreEntry{}, false
	}
	payload, hit := st.Get(key)
	if !hit {
		return StoreEntry{}, false
	}
	return DecodeStoreEntry(payload)
}

// Execute runs one cell: it returns the entry st holds under the cell's
// Key when there is one (Stored), and otherwise simulates it (Simulate).
func Execute(ctx context.Context, c CellSpec, workers int, st *store.Store) (StoreEntry, error) {
	if st != nil {
		if key, keyed := c.Key(); keyed {
			if e, ok := Stored(st, key); ok {
				return e, nil
			}
		}
	}
	return Simulate(ctx, c, workers, st)
}

// Simulate runs one cell without consulting st for its result: it
// assembles the system, simulates it exactly or sampled (restoring and
// capturing the warm snapshot under WarmKey in st), and writes the entry
// to st under the cell's Key. A nil st runs with no store. workers stands
// in for an unset Options.IntraWorkers — a caller's share of the
// goroutine budget; like every worker count it changes only wall-clock. A
// running cell polls ctx at every detailed batch and fast-forward chunk.
// Callers that looked the cell up themselves (Stored) call it on a miss.
func Simulate(ctx context.Context, c CellSpec, workers int, st *store.Store) (StoreEntry, error) {
	if err := c.Sampling.Validate(); err != nil {
		return StoreEntry{}, err
	}
	key, keyed := "", false
	if st != nil {
		key, keyed = c.Key()
	}
	opt := c.Opt
	if opt.IntraWorkers == 0 {
		opt.IntraWorkers = workers
	}
	// Options.Sources is the most specific override and wins everywhere
	// (core.NewMixSystem resolves it first too); TraceDir then beats the
	// workloads' own supply.
	if c.TraceDir != "" && opt.Sources == nil {
		dir := c.TraceDir
		opt.Sources = func(i int) (trace.Source, error) { return trace.OpenDirSource(dir, i) }
	}
	sys, err := core.NewMixSystem(c.Mix, c.Design, opt)
	if err != nil {
		return StoreEntry{}, err
	}
	// The deferred Close releases file-backed trace sources on every exit
	// path, success and error alike (the assembly above closes its own
	// partial opens).
	defer sys.Close()
	e := StoreEntry{OverheadMM2: sys.OverheadMM2, RelativeArea: sys.RelativeArea}
	if c.Sampling.Enabled() {
		var snapKey string
		if st != nil {
			snapKey, _ = c.WarmKey()
		}
		e.Stats, e.PerCore, e.Sampled, err = runSampled(ctx, sys, c.Warmup, c.Sampling, st, snapKey)
	} else {
		e.Stats, err = sys.RunCtx(ctx, c.Warmup, c.Measure)
		if err == nil {
			e.PerCore = sys.PerCoreSnapshot()
		}
	}
	if err != nil {
		return StoreEntry{}, err
	}
	if keyed {
		if payload, err := EncodeStoreEntry(e); err == nil {
			st.Put(key, payload) // best-effort: the result is in hand
		}
	}
	return e, nil
}
