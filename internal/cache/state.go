package cache

import "fmt"

// Warm-up snapshot support: the raw-array state of each structure is
// exported and restored verbatim — keys, use-stamps, per-set occupancy,
// and the stamp clock — so a restored structure replays bit-identically
// to the live one it was captured from. Rebuilding by re-insertion would
// lose the stamp ordering inside a set (and hence future LRU victims);
// copying the arrays loses nothing.
//
// The mru fast-path caches are deliberately NOT captured: they are pure
// lookup accelerators whose invalidation (mruOK=false) never changes an
// LRU decision — re-stamping the freshest entry is an order no-op — so a
// restored structure with a cold mru cache behaves identically.
//
// Value-bearing structures (Assoc, Victim) split state from values: the
// fixed-shape arrays travel in the exported *State struct while the
// []V values slice is returned alongside, letting owners of unexported
// value types convert them to serializable forms.

// CacheState is the serializable state of a Cache (tags + LRU order).
// Stats are not part of the state: warm-up counters are reset at the
// measurement boundary anyway.
type CacheState struct {
	Sets, Ways int
	Keys       []uint64
	Stamp      []uint64
	Occ        []uint16
	Clock      uint64
	N          int
}

// ExportState deep-copies the cache's replacement state.
func (c *Cache) ExportState() CacheState {
	return CacheState{
		Sets:  c.sets,
		Ways:  c.ways,
		Keys:  append([]uint64(nil), c.keys...),
		Stamp: append([]uint64(nil), c.stamp...),
		Occ:   append([]uint16(nil), c.occ...),
		Clock: c.clock,
		N:     c.n,
	}
}

// RestoreState overwrites the cache's contents from a snapshot. The
// snapshot's geometry must match the cache it is restored into — state
// is keyed by the design knobs that fix geometry, so a mismatch means a
// keying bug, not a recoverable condition.
func (c *Cache) RestoreState(st CacheState) error {
	if st.Sets != c.sets || st.Ways != c.ways {
		return fmt.Errorf("cache: snapshot geometry %dx%d does not match cache %dx%d", st.Sets, st.Ways, c.sets, c.ways)
	}
	if len(st.Keys) != len(c.keys) || len(st.Stamp) != len(c.stamp) || len(st.Occ) != len(c.occ) {
		return fmt.Errorf("cache: snapshot arrays malformed")
	}
	if err := checkOcc(st.Occ, st.Ways, st.N); err != nil {
		return err
	}
	copy(c.keys, st.Keys)
	copy(c.stamp, st.Stamp)
	copy(c.occ, st.Occ)
	c.clock = st.Clock
	c.n = st.N
	c.mruOK = false
	return nil
}

// checkOcc rejects per-set occupancy a live structure cannot reach: more
// valid ways than the set has, or a total other than the entry count n.
// Lookups scan each set's occupied prefix, so an overfull count would
// index into the next set or past the arrays.
func checkOcc(occ []uint16, ways, n int) error {
	total := 0
	for s, o := range occ {
		if int(o) > ways {
			return fmt.Errorf("cache: snapshot set %d holds %d of %d ways", s, o, ways)
		}
		total += int(o)
	}
	if total != n {
		return fmt.Errorf("cache: snapshot holds %d entries, occupancy sums to %d", n, total)
	}
	return nil
}

// AssocState is the serializable fixed-shape state of an Assoc; the
// parallel values slice travels separately (see ExportState).
type AssocState struct {
	Sets, Ways int
	Keys       []uint64
	Stamp      []uint64
	Occ        []uint16
	Clock      uint64
	N          int
}

// ExportState deep-copies the store's state. The returned values slice
// is parallel to State.Keys (sets*ways entries, valid ways per the
// prefix counters in Occ); the caller owns the copy.
func (a *Assoc[V]) ExportState() (AssocState, []V) {
	return AssocState{
		Sets:  a.sets,
		Ways:  a.ways,
		Keys:  append([]uint64(nil), a.keys...),
		Stamp: append([]uint64(nil), a.stamp...),
		Occ:   append([]uint16(nil), a.occ...),
		Clock: a.clock,
		N:     a.n,
	}, append([]V(nil), a.vals...)
}

// RestoreState overwrites the store's contents from a snapshot.
func (a *Assoc[V]) RestoreState(st AssocState, vals []V) error {
	if st.Sets != a.sets || st.Ways != a.ways {
		return fmt.Errorf("cache: assoc snapshot geometry %dx%d does not match store %dx%d", st.Sets, st.Ways, a.sets, a.ways)
	}
	if len(st.Keys) != len(a.keys) || len(vals) != len(a.vals) || len(st.Stamp) != len(a.stamp) || len(st.Occ) != len(a.occ) {
		return fmt.Errorf("cache: assoc snapshot arrays malformed")
	}
	if err := checkOcc(st.Occ, st.Ways, st.N); err != nil {
		return err
	}
	copy(a.keys, st.Keys)
	copy(a.vals, vals)
	copy(a.stamp, st.Stamp)
	copy(a.occ, st.Occ)
	a.clock = st.Clock
	a.n = st.N
	a.mruOK = false
	return nil
}

// VictimState is the serializable fixed-shape state of a Victim buffer;
// the parallel values slice travels separately.
type VictimState struct {
	Cap   int
	Keys  []uint64
	Stamp []uint64
	Clock uint64
}

// ExportState deep-copies the buffer's state; the returned values slice
// is parallel to State.Keys.
func (v *Victim[V]) ExportState() (VictimState, []V) {
	return VictimState{
		Cap:   v.cap,
		Keys:  append([]uint64(nil), v.keys...),
		Stamp: append([]uint64(nil), v.stamp...),
		Clock: v.clock,
	}, append([]V(nil), v.vals...)
}

// RestoreState overwrites the buffer's contents from a snapshot.
func (v *Victim[V]) RestoreState(st VictimState, vals []V) error {
	if st.Cap != v.cap {
		return fmt.Errorf("cache: victim snapshot capacity %d does not match buffer %d", st.Cap, v.cap)
	}
	if len(st.Keys) > st.Cap || len(vals) != len(st.Keys) || len(st.Stamp) != len(st.Keys) {
		return fmt.Errorf("cache: victim snapshot arrays malformed")
	}
	v.keys = append(v.keys[:0], st.Keys...)
	v.vals = append(v.vals[:0], vals...)
	v.stamp = append(v.stamp[:0], st.Stamp...)
	v.clock = st.Clock
	return nil
}
