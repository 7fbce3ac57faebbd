package airbtb

import (
	"fmt"

	"confluence/internal/cache"
	"confluence/internal/flatmap"
	"confluence/internal/isa"
)

// State is the serializable state of an AirBTB, captured for warm-up
// snapshots: the bundle table's raw slots (probe layout restores
// verbatim — see flatmap.ExportState) and the overflow buffer with its
// recency stamps. Diagnostic counters (Fills, Evictions...) are
// excluded; they never influence a lookup or a fill decision.
type State struct {
	Bundles    flatmap.MapState
	BundleVals []Bundle

	OverflowPCs   []isa.Addr
	OverflowEnts  []Entry
	OverflowStamp []uint64
	OverflowClock uint64
}

// ExportState deep-copies the structure's contents.
func (a *AirBTB) ExportState() State {
	st, vals := a.bundles.ExportState()
	out := State{Bundles: st, BundleVals: vals}
	if a.overflow != nil {
		vs, ents := a.overflow.ExportState()
		for _, k := range vs.Keys {
			out.OverflowPCs = append(out.OverflowPCs, isa.Addr(k))
		}
		out.OverflowEnts, out.OverflowStamp, out.OverflowClock = ents, vs.Stamp, vs.Clock
	}
	return out
}

// RestoreState overwrites the structure's contents from a snapshot;
// geometry (bundle table slots, overflow capacity) must match, and the
// overflow buffer must be one a live run can reach (see
// cache.Victim.RestoreState).
func (a *AirBTB) RestoreState(st State) error {
	if a.overflow == nil {
		if len(st.OverflowPCs) > 0 || len(st.OverflowEnts) > 0 || len(st.OverflowStamp) > 0 || st.OverflowClock != 0 {
			return fmt.Errorf("airbtb: overflow snapshot for a configuration without an overflow buffer")
		}
	} else {
		keys := make([]uint64, len(st.OverflowPCs))
		for i, pc := range st.OverflowPCs {
			if uint64(pc) != overflowKey(pc) {
				return fmt.Errorf("airbtb: overflow snapshot PC %#x is not instruction-aligned", pc)
			}
			keys[i] = uint64(pc)
		}
		vs := cache.VictimState{Cap: a.cfg.OverflowEntries, Keys: keys, Stamp: st.OverflowStamp, Clock: st.OverflowClock}
		if err := a.overflow.RestoreState(vs, st.OverflowEnts); err != nil {
			return fmt.Errorf("airbtb: overflow: %w", err)
		}
	}
	return a.bundles.RestoreState(st.Bundles, st.BundleVals)
}
