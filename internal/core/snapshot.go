package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"confluence/internal/airbtb"
	"confluence/internal/btb"
	"confluence/internal/cache"
	"confluence/internal/cmp"
	"confluence/internal/frontend"
	"confluence/internal/phantom"
	"confluence/internal/shift"
)

// Sampling re-exports the engine's SMARTS-style sampling plan so layers
// above core (experiments, the public API) need not import internal/cmp.
type Sampling = cmp.Sampling

// Coverage re-exports the engine's full-region probe accounting.
type Coverage = cmp.Coverage

// AutoSampling re-exports cmp.AutoSampling.
func AutoSampling(measure uint64) Sampling { return cmp.AutoSampling(measure) }

// Warm-up snapshots: the full history-relevant state of a system at a
// phase boundary (typically the end of functional fast-forward warm-up),
// gob-encoded for the durable store. A restored system steps forward
// bit-identically to one that ran the warm-up live: per-core state
// restores verbatim (frontend.CoreWarmState plus the design's BTB),
// shared structures (LLC contents, SHIFT history, phantom group store)
// restore verbatim, and SkipRecords repositions every instruction stream
// to the consumed count the snapshot recorded.
//
// Snapshots are taken at phase boundaries only, where in-flight fill
// tables are empty by construction, so they are not part of the state.

// warmSnapshotVersion invalidates stored snapshots when the encoded
// layout or the set of captured state changes.
const warmSnapshotVersion = 2

func init() {
	// Concrete types carried in CoreWarmState.BTB (declared `any`).
	gob.Register(btb.ConventionalState{})
	gob.Register(btb.TwoLevelState{})
	gob.Register(airbtb.State{})
	gob.Register(phantom.State{})
}

type warmSnapshot struct {
	Version  int
	Consumed []uint64 // per-core stream records consumed at capture
	Cores    []frontend.CoreWarmState
	LLC      cache.CacheState
	History  *shift.HistoryState // nil unless the design shares a SHIFT history
	Phantom  *phantom.StoreState // nil unless the design shares a phantom store
}

// SnapshotSupported reports whether this system's warm state can be
// captured. Per-core private SHIFT histories (the HistoryPerCore
// ablation) are not reachable from the system, so that wiring falls back
// to live warm-up.
func (s *System) SnapshotSupported() bool { return !s.HistoryPerCore }

// WarmSnapshot serializes the system's warm-up state. Capture it at a
// phase boundary before any measurement (the caller keys it by workload,
// warm-up length, and warm-relevant design knobs; see
// experiments.CellSpec.WarmKey).
func (s *System) WarmSnapshot() ([]byte, error) {
	if !s.SnapshotSupported() {
		return nil, fmt.Errorf("core: warm snapshots unsupported with per-core histories")
	}
	snap := warmSnapshot{
		Version:  warmSnapshotVersion,
		Consumed: s.ConsumedRecords(),
		LLC:      s.Hier.ExportLLCState(),
	}
	for _, c := range s.Cores {
		st := c.ExportWarmState()
		switch d := c.BTB().(type) {
		case nil: // PerfectBTB
		case *btb.Conventional:
			st.BTB = d.ExportState()
		case *btb.TwoLevel:
			st.BTB = d.ExportState()
		case *airbtb.AirBTB:
			st.BTB = d.ExportState()
		case *phantom.PhantomBTB:
			st.BTB = d.ExportState()
		default:
			return nil, fmt.Errorf("core: design %s BTB %T has no snapshot form", s.Design, d)
		}
		snap.Cores = append(snap.Cores, st)
	}
	if s.History != nil {
		h := s.History.ExportState()
		snap.History = &h
	}
	if s.PhantomStore != nil {
		p := s.PhantomStore.ExportState()
		snap.Phantom = &p
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("core: encoding warm snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreWarmSnapshot overwrites the system's warm state from a
// WarmSnapshot payload and repositions every core's instruction stream
// to the snapshot's consumed count. Call it on a freshly assembled
// system, before any simulation. The system must match the snapshot's
// configuration (snapshot store keys pin workload and warm-relevant
// knobs; geometry checks below catch mixups).
func (s *System) RestoreWarmSnapshot(ctx context.Context, data []byte) error {
	if !s.SnapshotSupported() {
		return fmt.Errorf("core: warm snapshots unsupported with per-core histories")
	}
	var snap warmSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("core: decoding warm snapshot: %w", err)
	}
	if snap.Version != warmSnapshotVersion {
		return fmt.Errorf("core: warm snapshot version %d, want %d", snap.Version, warmSnapshotVersion)
	}
	if len(snap.Cores) != len(s.Cores) {
		return fmt.Errorf("core: warm snapshot has %d cores, system has %d", len(snap.Cores), len(s.Cores))
	}
	for i, c := range s.Cores {
		st := snap.Cores[i]
		if err := c.RestoreWarmState(st); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
		if err := restoreBTB(c.BTB(), st.BTB); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	if err := s.Hier.RestoreLLCState(snap.LLC); err != nil {
		return fmt.Errorf("core: restoring LLC: %w", err)
	}
	if (s.History != nil) != (snap.History != nil) {
		return fmt.Errorf("core: warm snapshot history presence does not match design")
	}
	if s.History != nil {
		if err := s.History.RestoreState(*snap.History); err != nil {
			return fmt.Errorf("core: restoring history: %w", err)
		}
	}
	if (s.PhantomStore != nil) != (snap.Phantom != nil) {
		return fmt.Errorf("core: warm snapshot phantom store presence does not match design")
	}
	if s.PhantomStore != nil {
		if err := s.PhantomStore.RestoreState(*snap.Phantom); err != nil {
			return fmt.Errorf("core: restoring phantom store: %w", err)
		}
	}
	return s.SkipRecords(ctx, snap.Consumed)
}

func restoreBTB(design btb.Design, st any) error {
	switch d := design.(type) {
	case nil:
		if st != nil {
			return fmt.Errorf("core: snapshot carries BTB state for a perfect-BTB core")
		}
		return nil
	case *btb.Conventional:
		bs, ok := st.(btb.ConventionalState)
		if !ok {
			return fmt.Errorf("core: snapshot BTB state %T, core wants conventional", st)
		}
		return d.RestoreState(bs)
	case *btb.TwoLevel:
		bs, ok := st.(btb.TwoLevelState)
		if !ok {
			return fmt.Errorf("core: snapshot BTB state %T, core wants two-level", st)
		}
		return d.RestoreState(bs)
	case *airbtb.AirBTB:
		bs, ok := st.(airbtb.State)
		if !ok {
			return fmt.Errorf("core: snapshot BTB state %T, core wants AirBTB", st)
		}
		return d.RestoreState(bs)
	case *phantom.PhantomBTB:
		bs, ok := st.(phantom.State)
		if !ok {
			return fmt.Errorf("core: snapshot BTB state %T, core wants phantom", st)
		}
		return d.RestoreState(bs)
	default:
		return fmt.Errorf("core: BTB %T has no snapshot form", d)
	}
}

// WarmClass names the design-dependent portion of warm-up evolution: two
// design points with the same class, workload, warm-up length, and
// history knobs produce bit-identical warm snapshots, so they share
// store entries. The class captures exactly what functional fast-forward
// touches — BTB structure and geometry, LLC metadata reservation, and
// whether a shared history records — and deliberately omits pure timing
// knobs (prefetcher lookahead, predecode penalty, FDP configuration)
// that fast-forward never consults. Base1K and FDP1K, for example,
// differ only in an FDP engine that is idle during fast-forward, so they
// share the class "conv1k".
func (d DesignPoint) WarmClass(opt Options) string {
	opt = opt.Normalized()
	air := func() string {
		return fmt.Sprintf("%d.%d.%d", opt.Air.Bundles, opt.Air.EntriesPerBundle, opt.Air.OverflowEntries)
	}
	cls := ""
	switch d {
	case Base1K, FDP1K, Base1KSHIFT:
		cls = "conv1k"
	case TwoLevelFDP, TwoLevelSHIFT:
		cls = "2level"
	case PhantomFDP, PhantomSHIFT:
		cls = "phantom"
	case IdealBTBSHIFT:
		cls = "conv16k"
	case Confluence:
		cls = "air/" + air()
	case AirCapacity:
		cls = "aireq-lazy/" + air()
	case AirSpatial, AirPrefetch:
		cls = "aireq-eager/" + air()
	case SweepBTB:
		cls = fmt.Sprintf("conv-sweep/%d", opt.SweepBTBEntries)
	case Ideal:
		cls = "ideal"
	default:
		cls = "design/" + d.String()
	}
	// A recording shared history and its LLC reservation are part of the
	// warm state; designs differing only in SHIFT presence must not share.
	if d.UsesSHIFT() {
		cls += "+shift"
	}
	return cls
}
