package airbtb

import (
	"fmt"
	"math/bits"

	"confluence/internal/cache"
	"confluence/internal/isa"
)

// State is the serializable state of an AirBTB, captured for warm-up
// snapshots: each L1-I slot's bundle mask (see AirBTB.mask) and the
// overflow buffer with its recency stamps. Bundle owners are not
// carried: a bundle belongs to the block its L1-I slot holds, so restore
// reads them from the bound L1-I, which must be restored first.
// Diagnostic counters (Fills, Evictions...) are excluded; they never
// influence a prediction or a fill decision.
type State struct {
	Masks []uint32

	OverflowPCs   []isa.Addr
	OverflowEnts  []Entry
	OverflowStamp []uint64
	OverflowClock uint64
}

// ExportState deep-copies the structure's contents.
func (a *AirBTB) ExportState() State {
	out := State{Masks: append([]uint32(nil), a.mask...)}
	if a.overflow != nil {
		vs, ents := a.overflow.ExportState()
		for _, k := range vs.Keys {
			out.OverflowPCs = append(out.OverflowPCs, isa.Addr(k))
		}
		out.OverflowEnts, out.OverflowStamp, out.OverflowClock = ents, vs.Stamp, vs.Clock
	}
	return out
}

// RestoreState overwrites the structure's contents from a snapshot,
// taking each bundle's owner from the bound L1-I's restored contents.
// Geometry (bundle count, overflow capacity) must match, every mask must
// be one a fill writes — a slot the L1-I leaves empty has none, and a
// bundle holds exactly its block's first EntriesPerBundle branches — and
// the overflow buffer must be one a live run can reach (see
// cache.Victim.RestoreState).
func (a *AirBTB) RestoreState(st State) error {
	if len(st.Masks) != len(a.mask) {
		return fmt.Errorf("airbtb: snapshot has %d bundles, want %d", len(st.Masks), len(a.mask))
	}
	l1 := a.l1i.ExportState()
	owner := make([]uint64, len(a.owner))
	for s, m := range st.Masks {
		owner[s] = noOwner
		if s%l1.Ways < int(l1.Occ[s/l1.Ways]) {
			owner[s] = l1.Keys[s]
		} else if m != 0 {
			return fmt.Errorf("airbtb: snapshot bundle %d has a mask but its L1-I slot is empty", s)
		}
		if uint16(m>>16) != firstBranches(uint16(m), a.cfg.EntriesPerBundle) {
			return fmt.Errorf("airbtb: snapshot bundle %d mask %#x holds branches other than its first %d", s, m, a.cfg.EntriesPerBundle)
		}
	}
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
	copy(a.owner, owner)
	copy(a.mask, st.Masks)
	return nil
}

// firstBranches returns the lowest n set bits of bitmap: the offsets of a
// block's first n branches, the ones its bundle holds.
func firstBranches(bitmap uint16, n int) uint16 {
	var out uint16
	for ; bitmap != 0 && n > 0; n-- {
		low := uint16(1) << bits.TrailingZeros16(bitmap)
		out |= low
		bitmap &^= low
	}
	return out
}
