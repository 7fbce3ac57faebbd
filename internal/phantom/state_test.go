package phantom

import (
	"reflect"
	"testing"

	"confluence/internal/isa"
)

func TestStateRoundTrip(t *testing.T) {
	store := NewStore(1024)
	p := New("pb", 64, 4, 16, store, 20)
	// Form several groups and leave one fill in flight plus a partially
	// formed current group, so every State field is non-trivial.
	for g := 0; g < 4; g++ {
		base := isa.Addr(0x8000 + g*0x1000)
		for i := 0; i < GroupEntries; i++ {
			missAndResolve(p, float64(g*10+i), base+isa.Addr(i*8))
		}
	}
	lookup(p, 100, 0x8000) // group hit queues a pending fill
	missAndResolve(p, 101, 0x20000)

	st := p.ExportState()
	if !st.CurValid && len(st.Pending) == 0 {
		t.Fatal("training left no in-flight state to snapshot")
	}
	freshStore := NewStore(1024)
	fresh := New("pb", 64, 4, 16, freshStore, 20)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) {
		t.Error("re-exported per-core state differs from the snapshot")
	}

	sst := store.ExportState()
	if err := freshStore.RestoreState(sst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freshStore.ExportState(), sst) {
		t.Error("re-exported store state differs from the snapshot")
	}

	// Bit-identical future decisions once both halves are restored.
	h1, h2 := lookup(p, 200, 0x9000), lookup(fresh, 200, 0x9000)
	if h1 != h2 || !reflect.DeepEqual(p.ExportState(), fresh.ExportState()) {
		t.Errorf("post-restore lookup diverged: hit %v vs %v", h1, h2)
	}
}

func TestStateRestoreRejectsGeometryMismatch(t *testing.T) {
	store := NewStore(1024)
	p := New("pb", 64, 4, 16, store, 20)
	missAndResolve(p, 0, 0x8000)
	st := p.ExportState()
	if err := New("pb", 32, 4, 16, NewStore(1024), 20).RestoreState(st); err == nil {
		t.Error("restore into mismatched L1 geometry succeeded")
	}

	sst := store.ExportState()
	if err := NewStore(512).RestoreState(sst); err == nil {
		t.Error("store restore into mismatched capacity succeeded")
	}
}

// TestStateRestoreRejectsOverfullGroups: a snapshot group claiming more
// entries than a line holds, or a forming group with no room left, would
// index past the entries once the restored state runs; restore fails
// closed instead.
func TestStateRestoreRejectsOverfullGroups(t *testing.T) {
	store := NewStore(1024)
	p := New("pb", 64, 4, 16, store, 20)
	for i := 0; i < GroupEntries+2; i++ {
		missAndResolve(p, float64(i), 0x8000+isa.Addr(i*8))
	}
	st, sst := p.ExportState(), store.ExportState()

	for name, mutate := range map[string]func(*State){
		"pending":  func(s *State) { s.Pending[0].G.N = GroupEntries + 1 },
		"negative": func(s *State) { s.Cur.N = -1 },
		"full-cur": func(s *State) { s.Cur.N, s.CurValid = GroupEntries, true },
	} {
		bad := st
		mutate(&bad)
		if err := New("pb", 64, 4, 16, NewStore(1024), 20).RestoreState(bad); err == nil {
			t.Errorf("%s: restore of an overfull group succeeded", name)
		}
	}
	sst.Vals = append([]GroupState(nil), sst.Vals...)
	sst.Vals[0].N = GroupEntries + 1
	if err := NewStore(1024).RestoreState(sst); err == nil {
		t.Error("store restore of an overfull group succeeded")
	}
}
