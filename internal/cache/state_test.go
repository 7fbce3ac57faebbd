package cache

import (
	"reflect"
	"testing"
)

func TestCacheStateRoundTrip(t *testing.T) {
	c := New(16, 4)
	for k := uint64(0); k < 100; k++ {
		c.Insert(k)
	}
	// Touch a few entries so the stamp ordering is non-trivial.
	for k := uint64(40); k < 60; k += 3 {
		c.Lookup(k)
	}
	st := c.ExportState()

	fresh := New(16, 4)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) {
		t.Error("re-exported state differs from the snapshot")
	}
	// Bit-identical future decisions: the same insert must pick the same
	// LRU victim on both the live cache and the restored one.
	ev1, was1 := c.Insert(1000)
	ev2, was2 := fresh.Insert(1000)
	if ev1 != ev2 || was1 != was2 {
		t.Errorf("post-restore eviction diverged: (%d,%v) vs (%d,%v)", ev1, was1, ev2, was2)
	}
}

func TestCacheStateRejectsGeometryMismatch(t *testing.T) {
	st := New(16, 4).ExportState()
	if err := New(8, 4).RestoreState(st); err == nil {
		t.Error("restore into mismatched geometry succeeded")
	}
	st.Keys = st.Keys[:1]
	if err := New(16, 4).RestoreState(st); err == nil {
		t.Error("restore with malformed arrays succeeded")
	}
}

func TestAssocStateRoundTrip(t *testing.T) {
	a := NewAssoc[uint64](16, 4)
	for k := uint64(0); k < 100; k++ {
		a.Insert(k, k*10)
	}
	st, vals := a.ExportState()

	fresh := NewAssoc[uint64](16, 4)
	if err := fresh.RestoreState(st, vals); err != nil {
		t.Fatal(err)
	}
	st2, vals2 := fresh.ExportState()
	if !reflect.DeepEqual(st, st2) || !reflect.DeepEqual(vals, vals2) {
		t.Error("re-exported state differs from the snapshot")
	}
	if v, ok := fresh.Lookup(99); !ok || v != 990 {
		t.Errorf("Lookup(99) = %d,%v after restore, want 990", v, ok)
	}

	if err := NewAssoc[uint64](8, 4).RestoreState(st, vals); err == nil {
		t.Error("restore into mismatched geometry succeeded")
	}
	if err := NewAssoc[uint64](16, 4).RestoreState(st, vals[:3]); err == nil {
		t.Error("restore with a short values slice succeeded")
	}
}

func TestVictimStateRoundTrip(t *testing.T) {
	v := NewVictim[uint64](4)
	for k := uint64(0); k < 7; k++ { // overflows capacity, evicting LRU
		v.Put(k, k*10)
	}
	st, vals := v.ExportState()

	fresh := NewVictim[uint64](4)
	if err := fresh.RestoreState(st, vals); err != nil {
		t.Fatal(err)
	}
	st2, vals2 := fresh.ExportState()
	if !reflect.DeepEqual(st, st2) || !reflect.DeepEqual(vals, vals2) {
		t.Error("re-exported state differs from the snapshot")
	}
	if got, ok := fresh.Peek(6); !ok || got != 60 {
		t.Errorf("Peek(6) = %d,%v after restore, want 60", got, ok)
	}

	if err := NewVictim[uint64](2).RestoreState(st, vals); err == nil {
		t.Error("restore into smaller buffer succeeded")
	}
	if err := NewVictim[uint64](4).RestoreState(st, vals[:1]); err == nil {
		t.Error("restore with a short values slice succeeded")
	}
}

// TestStateRejectsImpossibleOccupancy: a set claiming more valid ways
// than it has would send lookups into the next set or past the arrays,
// and an entry count the occupancy does not sum to is no live state
// either; restore fails closed on both.
func TestStateRejectsImpossibleOccupancy(t *testing.T) {
	c := New(16, 4)
	a := NewAssoc[uint64](16, 4)
	for k := uint64(0); k < 20; k++ {
		c.Insert(k)
		a.Insert(k, k)
	}
	cst := c.ExportState()
	ast, vals := a.ExportState()

	over := cst
	over.Occ = append([]uint16(nil), cst.Occ...)
	over.Occ[3] = 5
	if err := New(16, 4).RestoreState(over); err == nil {
		t.Error("cache restore with a 5-way set in a 4-way cache succeeded")
	}
	miscount := cst
	miscount.N++
	if err := New(16, 4).RestoreState(miscount); err == nil {
		t.Error("cache restore with a mismatched entry count succeeded")
	}
	aover := ast
	aover.Occ = append([]uint16(nil), ast.Occ...)
	aover.Occ[0] = 1 << 15
	if err := NewAssoc[uint64](16, 4).RestoreState(aover, vals); err == nil {
		t.Error("assoc restore with an overfull set succeeded")
	}
}
