// Package core implements Confluence, the paper's contribution: a frontend
// whose single stream-based prefetcher (SHIFT) proactively fills both the
// L1-I and the BTB from one set of block-grain control-flow metadata shared
// across cores and virtualized in the LLC.
//
// The unification is the wiring: SHIFT's stream engine predicts instruction
// blocks; every block filled into the L1-I (by prefetch or on demand) is
// predecoded and its branch targets are eagerly inserted into AirBTB, whose
// bundles are evicted exactly when their blocks leave the L1-I. The package
// also assembles every competing design point evaluated by the paper
// (conventional/two-level/Phantom BTBs with FDP or SHIFT) so experiments
// compare like with like.
package core

import (
	"fmt"
	"io"

	"confluence/internal/airbtb"
	"confluence/internal/area"
	"confluence/internal/btb"
	"confluence/internal/cmp"
	"confluence/internal/fdp"
	"confluence/internal/frontend"
	"confluence/internal/isa"
	"confluence/internal/mem"
	"confluence/internal/phantom"
	"confluence/internal/prefetch"
	"confluence/internal/shift"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// DesignPoint identifies one frontend configuration from the paper's
// evaluation.
type DesignPoint int

const (
	// Base1K: 1K-entry conventional BTB + 64-entry victim buffer, no
	// instruction prefetching. The normalization baseline of Figs 2/6/7.
	Base1K DesignPoint = iota
	// FDP1K: Base1K plus fetch-directed prefetching.
	FDP1K
	// PhantomFDP: PhantomBTB (1K L1 + LLC-virtualized temporal groups) + FDP.
	PhantomFDP
	// TwoLevelFDP: 1K L1-BTB + 16K 4-cycle L2-BTB + FDP.
	TwoLevelFDP
	// TwoLevelSHIFT: the strongest conventional point: two-level BTB + SHIFT.
	TwoLevelSHIFT
	// Base1KSHIFT: 1K BTB + SHIFT (Fig 7's normalization baseline).
	Base1KSHIFT
	// PhantomSHIFT: PhantomBTB + SHIFT (Fig 7).
	PhantomSHIFT
	// Confluence: AirBTB + SHIFT with synchronized L1-I/BTB content.
	Confluence
	// IdealBTBSHIFT: 16K-entry single-cycle BTB + SHIFT (Fig 7).
	IdealBTBSHIFT
	// Ideal: perfect L1-I and perfect single-cycle BTB (Figs 2/6).
	Ideal

	// Fig 8 intermediate design points (cumulative AirBTB mechanisms).
	AirCapacity // conventional org at AirBTB-equivalent capacity
	AirSpatial  // + eager whole-block insertion on demand fills
	AirPrefetch // + SHIFT-driven fills feed the BTB too

	// SweepBTB: conventional BTB with Options.SweepBTBEntries entries, no
	// prefetching (Fig 1).
	SweepBTB
)

var designNames = map[DesignPoint]string{
	Base1K:        "Base1K",
	FDP1K:         "FDP",
	PhantomFDP:    "PhantomBTB+FDP",
	TwoLevelFDP:   "2LevelBTB+FDP",
	TwoLevelSHIFT: "2LevelBTB+SHIFT",
	Base1KSHIFT:   "Base1K+SHIFT",
	PhantomSHIFT:  "PhantomBTB+SHIFT",
	Confluence:    "Confluence",
	IdealBTBSHIFT: "IdealBTB+SHIFT",
	Ideal:         "Ideal",
	AirCapacity:   "AirBTB-Capacity",
	AirSpatial:    "AirBTB-Spatial",
	AirPrefetch:   "AirBTB-Prefetch",
	SweepBTB:      "SweepBTB",
}

func (d DesignPoint) String() string {
	if n, ok := designNames[d]; ok {
		return n
	}
	return fmt.Sprintf("DesignPoint(%d)", int(d))
}

// DesignByName resolves a design point from its String form (the names
// used in tables, golden files, and serialized job specs).
func DesignByName(name string) (DesignPoint, bool) {
	for d := Base1K; ; d++ {
		n, ok := designNames[d]
		if !ok {
			return 0, false
		}
		if n == name {
			return d, true
		}
	}
}

// DesignNames lists every design point's name in design-point order — the
// canonical vocabulary for serialized job specs.
func DesignNames() []string {
	names := make([]string, 0, len(designNames))
	for d := Base1K; ; d++ {
		n, ok := designNames[d]
		if !ok {
			return names
		}
		names = append(names, n)
	}
}

// UsesSHIFT reports whether the design point employs the shared stream
// prefetcher.
func (d DesignPoint) UsesSHIFT() bool {
	switch d {
	case TwoLevelSHIFT, Base1KSHIFT, PhantomSHIFT, Confluence, IdealBTBSHIFT, AirPrefetch:
		return true
	}
	return false
}

// UsesFDP reports whether the design point uses fetch-directed prefetching.
func (d DesignPoint) UsesFDP() bool {
	switch d {
	case FDP1K, PhantomFDP, TwoLevelFDP:
		return true
	}
	return false
}

// SourceProvider supplies core coreID's instruction stream. Providers must
// be deterministic in coreID so repeated system assembly replays the same
// simulation.
type SourceProvider func(coreID int) (trace.Source, error)

// Options tunes system assembly. Zero-valued fields default to the paper's
// configuration field by field, so a partially-specified Options (say, only
// Shift.Lookahead set) keeps its explicit values and inherits the rest. The
// one zero that is meaningful rather than a sentinel: Air.OverflowEntries
// disables the overflow buffer (Fig 10's ablation) whenever any other Air
// field is set; only an entirely-zero Air selects the full paper default.
type Options struct {
	Cores           int           // CMP size (paper: 16)
	Air             airbtb.Config // AirBTB geometry (Fig 10 sensitivity)
	Shift           shift.Config
	FDP             fdp.Config
	SweepBTBEntries int // only for SweepBTB
	// HistoryPerCore gives every core a private SHIFT history instead of
	// the shared one (ablation; the paper shares).
	HistoryPerCore bool
	// Sources overrides where cores' instruction streams come from. Nil
	// selects the workload's own supply: live synthetic executors, or — for
	// a workload carrying a TraceDir — file replay of its capture.
	Sources SourceProvider
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Cores: 16,
		Air:   airbtb.DefaultConfig(),
		Shift: shift.DefaultConfig(),
		FDP:   fdp.DefaultConfig(),
	}
}

// Normalized returns o with every zero-valued sentinel replaced by its
// paper default, exactly as NewMixSystem interprets it. Two Options
// values that Normalized maps to the same result assemble the same
// system, which makes the normalized form the canonical one for
// memoization and store keys. Cores is left alone (NewMixSystem rejects
// Cores <= 0 rather than defaulting it), and the meaningful zero
// survives: Air.OverflowEntries stays 0 whenever any other Air field is
// set — only an entirely-zero Air selects the full paper default.
func (o Options) Normalized() Options {
	if defAir := airbtb.DefaultConfig(); o.Air == (airbtb.Config{}) {
		o.Air = defAir
	} else {
		if o.Air.Bundles == 0 {
			o.Air.Bundles = defAir.Bundles
		}
		if o.Air.EntriesPerBundle == 0 {
			o.Air.EntriesPerBundle = defAir.EntriesPerBundle
		}
	}
	defShift := shift.DefaultConfig()
	if o.Shift.HistoryEntries == 0 {
		o.Shift.HistoryEntries = defShift.HistoryEntries
	}
	if o.Shift.Lookahead == 0 {
		o.Shift.Lookahead = defShift.Lookahead
	}
	defFDP := fdp.DefaultConfig()
	if o.FDP.QueueDepth == 0 {
		o.FDP.QueueDepth = defFDP.QueueDepth
	}
	if o.FDP.CyclesPerBB == 0 {
		o.FDP.CyclesPerBB = defFDP.CyclesPerBB
	}
	return o
}

// System is an assembled CMP plus design metadata.
type System struct {
	*cmp.System
	Design DesignPoint
	// Workload is the first mix slot's workload (the whole workload of a
	// homogeneous system); Workloads lists every mix slot.
	Workload  *synth.Workload
	Workloads []*synth.Workload
	// OverheadMM2 is the per-core silicon added relative to the Base1K
	// frontend; RelativeArea the Figs 2/6 x-axis value.
	OverheadMM2  float64
	RelativeArea float64

	// Shared structures (nil when unused), exposed for tests/ablations.
	History      *shift.History
	PhantomStore *phantom.Store
	AirBTBs      []*airbtb.AirBTB

	// HistoryPerCore records the ablation wiring (each core a private
	// SHIFT history): warm-up snapshots only capture the shared history,
	// so snapshotting is unsupported under it.
	HistoryPerCore bool
}

// NewSystem assembles a CMP running workload w on every core under design
// point dp.
func NewSystem(w *synth.Workload, dp DesignPoint, opt Options) (*System, error) {
	return NewMixSystem([]*synth.Workload{w}, dp, opt)
}

// NewMixSystem assembles a consolidated CMP: core i runs mix[i mod
// len(mix)], with its own program image, predecode metadata, timing
// calibration, and instruction source. Each mix slot occupies a distinct
// tagged address space (isa.ASIDBase), so structures shared across cores —
// the LLC, SHIFT's history, PhantomBTB's group store — are stressed by the
// mix's combined footprint without false aliasing between programs.
// Entries that are the same generated program (equal Profile and TraceDir
// — repeated references or independent rebuilds alike) share a slot, so a
// mix of N copies of one workload is bit-identical to the homogeneous
// system NewSystem builds.
//
// Under a shared SHIFT history, each distinct workload's first core is a
// history generator, so every workload's control flow is represented in
// the shared buffer; the paper's single-generator configuration is the
// single-workload special case.
func NewMixSystem(mix []*synth.Workload, dp DesignPoint, opt Options) (*System, error) {
	if opt.Cores <= 0 {
		return nil, fmt.Errorf("core: need at least one core")
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("core: empty workload mix")
	}
	if len(mix) > opt.Cores {
		// With fewer cores than mix slots some workloads would silently
		// never run — reject instead of reporting a misleading consolidation.
		return nil, fmt.Errorf("core: %d-workload mix cannot consolidate onto %d cores", len(mix), opt.Cores)
	}
	for _, w := range mix {
		if w == nil {
			return nil, fmt.Errorf("core: nil workload in mix")
		}
		if opt.Sources == nil && w.TraceDir == "" && w.Prog == nil {
			return nil, fmt.Errorf("core: workload %q has no program and no trace to replay", w.Prof.Name)
		}
	}
	opt = opt.Normalized()

	sources := opt.Sources
	if sources == nil {
		sources = func(i int) (trace.Source, error) {
			w := mix[i%len(mix)]
			if w.TraceDir != "" {
				return trace.OpenDirSource(w.TraceDir, i)
			}
			return trace.NewExecutor(w, trace.CoreSeed(w.Prof.Seed, i)), nil
		}
	}

	// slotOf[i] is mix entry i's address-space slot: distinct workloads get
	// distinct slots in first-appearance order, while entries that are the
	// same generated program share a slot — so a mix of N copies of one
	// workload (same pointer or independently rebuilt from the same
	// profile; generation is deterministic) collapses to one address space,
	// one history generator, and all-zero tags, exactly the homogeneous
	// system.
	type workloadIdentity struct {
		prof synth.Profile
		dir  string
	}
	slotOf := make([]int, len(mix))
	seen := make(map[workloadIdentity]int, len(mix))
	for i, w := range mix {
		id := workloadIdentity{prof: w.Prof, dir: w.TraceDir}
		s, ok := seen[id]
		if !ok {
			s = len(seen)
			seen[id] = s
		}
		slotOf[i] = s
	}

	sys := &System{Design: dp, Workload: mix[0], Workloads: mix, HistoryPerCore: opt.HistoryPerCore}

	// Memory hierarchy: reserve LLC capacity for virtualized metadata.
	reserved := 0
	if dp.UsesSHIFT() {
		reserved += opt.Shift.HistoryBytes()
	}
	var store *phantom.Store
	if dp == PhantomFDP || dp == PhantomSHIFT {
		store = phantom.NewStore(4 << 10)
		reserved += store.Bytes()
		sys.PhantomStore = store
	}
	memCfg := mem.DefaultConfig()
	if opt.Cores != memCfg.Banks {
		memCfg.Banks = opt.Cores
	}
	hier := mem.New(memCfg, reserved)

	var history *shift.History
	if dp.UsesSHIFT() && !opt.HistoryPerCore {
		history = shift.NewHistory(opt.Shift.HistoryEntries)
		sys.History = history
	}

	cores := make([]*frontend.Core, opt.Cores)
	srcs := make([]trace.Source, opt.Cores)
	generated := make([]bool, len(seen)) // slots with a history generator
	// Every early return below this point must release the file-backed
	// sources already opened for earlier cores (closeAll); the leak-check
	// test TestAssemblyErrorClosesSources audits exactly these paths.
	fail := func(i int, err error) (*System, error) {
		closeAll(srcs[:i])
		return nil, err
	}
	for i := 0; i < opt.Cores; i++ {
		slot := slotOf[i%len(mix)]
		w := mix[i%len(mix)]
		prof := w.Prof
		cfg := frontend.DefaultConfig()
		cfg.CoreID = i
		cfg.ASID = slot
		cfg.BackendCPI = prof.BackendCPI
		cfg.Exposure = prof.Exposure
		cfg.Hier = hier
		cfg.Prog = w.Prog

		metaLat := hier.AvgLLCLatency(i)

		// BTB design.
		switch dp {
		case Base1K, FDP1K, Base1KSHIFT:
			cfg.BTB = btb.NewConventional("Conv1K", 256, 4, 64)
		case PhantomFDP, PhantomSHIFT:
			cfg.BTB = phantom.NewASID("PhantomBTB", 256, 4, 64, store, metaLat, isa.ASIDBase(slot))
		case TwoLevelFDP, TwoLevelSHIFT:
			cfg.BTB = btb.NewTwoLevel("2LevelBTB", 256, 4, 2048, 8, 3)
		case IdealBTBSHIFT:
			cfg.BTB = btb.NewConventional("IdealBTB16K", 2048, 8, 0)
		case Confluence:
			// The bundles live in the L1-I's slots, one per block.
			if blocks := cfg.L1ISets * cfg.L1IWays; opt.Air.Bundles != blocks {
				return fail(i, fmt.Errorf("core: AirBTB has %d bundles, the L1-I holds %d blocks", opt.Air.Bundles, blocks))
			}
			air := airbtb.New(opt.Air)
			sys.AirBTBs = append(sys.AirBTBs, air)
			cfg.BTB = air
			cfg.PredecodePenalty = 2
		case Ideal:
			cfg.PerfectBTB = true
			cfg.PerfectL1I = true
		case AirCapacity, AirSpatial:
			cfg.BTB = airEquivalentConventional(opt.Air, dp == AirSpatial)
		case AirPrefetch:
			cfg.BTB = airEquivalentConventional(opt.Air, true)
		case SweepBTB:
			e := opt.SweepBTBEntries
			if e <= 0 {
				return fail(i, fmt.Errorf("core: SweepBTB requires SweepBTBEntries"))
			}
			cfg.BTB = btb.NewConventional(fmt.Sprintf("Conv%d", e), e/4, 4, 0)
		default:
			return fail(i, fmt.Errorf("core: unknown design point %v", dp))
		}

		// Instruction prefetcher.
		switch {
		case dp.UsesSHIFT():
			h := history
			if opt.HistoryPerCore {
				h = shift.NewHistory(opt.Shift.HistoryEntries)
				if i == 0 {
					sys.History = h
				}
			}
			cfg.Prefetcher = shift.NewEngineASID(opt.Shift, h, metaLat, isa.ASIDBase(slot))
			// One generator per distinct workload (its first core); with
			// private histories every core records its own.
			if !generated[slot] || opt.HistoryPerCore {
				generated[slot] = true
				cfg.Recorder = h
			}
		case dp.UsesFDP():
			cfg.Prefetcher = fdp.New(opt.FDP)
		default:
			cfg.Prefetcher = prefetch.Null{}
		}

		cores[i] = frontend.NewCore(cfg)
		src, err := sources(i)
		if err != nil {
			return fail(i, fmt.Errorf("core: source for core %d: %w", i, err))
		}
		srcs[i] = src
	}

	inner, err := cmp.New(cores, srcs, hier)
	if err != nil {
		closeAll(srcs)
		return nil, err
	}
	sys.System = inner
	sys.OverheadMM2 = overheadMM2(dp, opt)
	sys.RelativeArea = area.Relative(sys.OverheadMM2)
	return sys, nil
}

// closeAll releases already-opened sources after a failed assembly.
func closeAll(srcs []trace.Source) {
	for _, s := range srcs {
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	}
}

// airEquivalentConventional builds the Fig 8 intermediate BTB: conventional
// organization with as many entries as AirBTB holds (bundles × entries +
// overflow); eager selects predecode-driven whole-block insertion.
func airEquivalentConventional(air airbtb.Config, eager bool) btb.Design {
	entries := air.Bundles*air.EntriesPerBundle + air.OverflowEntries
	ways := 6
	sets := 1
	for sets*2*ways <= entries {
		sets *= 2
	}
	if eager {
		return btb.NewEager("AirEquivEager", sets, ways, 32)
	}
	return btb.NewConventional("AirEquivCapacity", sets, ways, 32)
}

// overheadMM2 computes the per-core silicon overhead of a design point
// relative to the Base1K frontend (1K-entry BTB + victim buffer), using the
// paper's CACTI-calibrated area model.
func overheadMM2(dp DesignPoint, opt Options) float64 {
	baseBTB := area.SRAMBits(area.ConventionalBTBBits(1024, 4) + area.VictimBufferBits(64))
	switch dp {
	case Base1K, FDP1K:
		return 0
	case PhantomFDP:
		// First level matches the baseline's cost; the virtualized second
		// level lives in existing LLC blocks (paper §4.2.2).
		return 0
	case TwoLevelFDP:
		return area.SRAMBits(area.ConventionalBTBBits(16<<10, 8))
	case TwoLevelSHIFT:
		return area.SRAMBits(area.ConventionalBTBBits(16<<10, 8)) + area.ShiftPerCoreMM2
	case Base1KSHIFT, PhantomSHIFT:
		return area.ShiftPerCoreMM2
	case Confluence, AirPrefetch:
		airMM2 := area.SRAMBits(opt.Air.StorageBits())
		return airMM2 - baseBTB + area.ShiftPerCoreMM2
	case IdealBTBSHIFT:
		return area.SRAMBits(area.ConventionalBTBBits(16<<10, 8)) - baseBTB + area.ShiftPerCoreMM2
	case Ideal:
		return 0 // plotted at relative area 1.0 (paper Figs 2/6)
	case AirCapacity, AirSpatial:
		return area.SRAMBits(opt.Air.StorageBits()) - baseBTB
	case SweepBTB:
		return area.SRAMBits(area.ConventionalBTBBits(opt.SweepBTBEntries, 4)) - baseBTB
	}
	return 0
}
