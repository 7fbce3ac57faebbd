package phantom

import (
	"fmt"

	"confluence/internal/btb"
	"confluence/internal/cache"
)

// Warm-up snapshot support. The internal group/taggedEntry types are
// unexported (values never leave the package in live operation), so the
// snapshot forms below mirror them field-for-field in exported shape —
// gob cannot serialize unexported fields. Conversions are lossless.

// GroupState is the exported form of one temporal group.
type GroupState struct {
	N       int
	Keys    [GroupEntries]uint64
	Entries [GroupEntries]btb.Entry
}

func exportGroup(g group) GroupState {
	out := GroupState{N: g.n}
	for i, te := range g.entries {
		out.Keys[i], out.Entries[i] = te.key, te.e
	}
	return out
}

// importGroup rejects an entry count outside the group's capacity: the
// group would index past its entries once the restored state runs.
func importGroup(st GroupState) (group, error) {
	if st.N < 0 || st.N > GroupEntries {
		return group{}, fmt.Errorf("phantom: snapshot group holds %d entries, capacity %d", st.N, GroupEntries)
	}
	g := group{n: st.N}
	for i := range g.entries {
		g.entries[i] = taggedEntry{key: st.Keys[i], e: st.Entries[i]}
	}
	return g, nil
}

// StoreState is the serializable state of the shared group Store.
type StoreState struct {
	Groups cache.AssocState
	Vals   []GroupState
}

// ExportState deep-copies the store contents.
func (s *Store) ExportState() StoreState {
	st, vals := s.groups.ExportState()
	out := StoreState{Groups: st, Vals: make([]GroupState, len(vals))}
	for i, g := range vals {
		out.Vals[i] = exportGroup(g)
	}
	return out
}

// RestoreState overwrites the store contents from a snapshot; geometry
// must match.
func (s *Store) RestoreState(st StoreState) error {
	vals := make([]group, len(st.Vals))
	for i, g := range st.Vals {
		var err error
		if vals[i], err = importGroup(g); err != nil {
			return err
		}
	}
	return s.groups.RestoreState(st.Groups, vals)
}

// PendingFillState is the exported form of one in-flight group fill.
type PendingFillState struct {
	Ready float64
	G     GroupState
}

// State is the serializable per-core PhantomBTB state: first level,
// prefetch buffer, group formation, and in-flight fills. The shared
// Store snapshots separately (one per system, not per core). Diagnostic
// counters (GroupFills, GroupHits) are excluded.
type State struct {
	L1     cache.AssocState
	L1Vals []btb.Entry
	PF     cache.VictimState
	PFVals []btb.Entry

	Cur       GroupState
	CurRegion uint64
	CurValid  bool

	Pending []PendingFillState
}

// ExportState deep-copies the per-core state.
func (p *PhantomBTB) ExportState() State {
	l1, l1v := p.l1.ExportState()
	pf, pfv := p.pfbuf.ExportState()
	st := State{
		L1: l1, L1Vals: l1v,
		PF: pf, PFVals: pfv,
		Cur:       exportGroup(p.cur),
		CurRegion: p.curRegion,
		CurValid:  p.curValid,
	}
	for _, f := range p.pending {
		st.Pending = append(st.Pending, PendingFillState{Ready: f.ready, G: exportGroup(f.g)})
	}
	return st
}

// RestoreState overwrites the per-core state from a snapshot; geometry
// must match.
func (p *PhantomBTB) RestoreState(st State) error {
	if err := p.l1.RestoreState(st.L1, st.L1Vals); err != nil {
		return err
	}
	if err := p.pfbuf.RestoreState(st.PF, st.PFVals); err != nil {
		return err
	}
	cur, err := importGroup(st.Cur)
	if err != nil {
		return err
	}
	// A forming group is inserted the moment it fills, so a valid one
	// always has room for the next entry.
	if st.CurValid && cur.n == GroupEntries {
		return fmt.Errorf("phantom: snapshot forming group is already full")
	}
	p.cur = cur
	p.curRegion = st.CurRegion
	p.curValid = st.CurValid
	p.pending = p.pending[:0]
	for _, f := range st.Pending {
		g, err := importGroup(f.G)
		if err != nil {
			return err
		}
		p.pending = append(p.pending, pendingFill{ready: f.Ready, g: g})
	}
	return nil
}
