package btb

import (
	"reflect"
	"testing"

	"confluence/internal/isa"
)

func trainSeq(d Design, n int) {
	for i := 0; i < n; i++ {
		bb := isa.Addr(0x1000 + i*64)
		d.Predict(float64(i), bb, 4, takenBranch(bb+12, isa.BrUncond, bb+0x8000))
	}
}

func TestConventionalStateRoundTrip(t *testing.T) {
	c := NewConventional("t", 4, 2, 4)
	trainSeq(c, 64) // overflows main into the victim buffer
	st := c.ExportState()
	if st.Victim == nil {
		t.Fatal("victim buffer state missing")
	}

	fresh := NewConventional("t", 4, 2, 4)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) {
		t.Error("re-exported state differs from the snapshot")
	}
	// Bit-identical future decisions on both copies.
	bb := isa.Addr(0x1000 + 63*64)
	h1, _ := probe(c, 100, bb, bb+12)
	h2, _ := probe(fresh, 100, bb, bb+12)
	if h1 != h2 || !reflect.DeepEqual(c.ExportState(), fresh.ExportState()) {
		t.Errorf("post-restore lookup diverged: hit %v vs %v", h1, h2)
	}
}

func TestConventionalStateNoVictim(t *testing.T) {
	c := NewConventional("t", 4, 2, 0)
	trainSeq(c, 16)
	st := c.ExportState()
	if st.Victim != nil {
		t.Fatal("victimless design exported victim state")
	}
	fresh := NewConventional("t", 4, 2, 0)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) {
		t.Error("re-exported state differs from the snapshot")
	}
}

func TestConventionalStateRejectsGeometryMismatch(t *testing.T) {
	st := NewConventional("t", 4, 2, 0).ExportState()
	if err := NewConventional("t", 8, 2, 0).RestoreState(st); err == nil {
		t.Error("restore into mismatched geometry succeeded")
	}
}

func TestTwoLevelStateRoundTrip(t *testing.T) {
	d := NewTwoLevel("t2", 2, 2, 16, 4, 2)
	trainSeq(d, 48) // spills L1 into L2
	st := d.ExportState()

	fresh := NewTwoLevel("t2", 2, 2, 16, 4, 2)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) {
		t.Error("re-exported state differs from the snapshot")
	}
	bb := isa.Addr(0x1000)
	h1, b1 := probe(d, 100, bb, bb+12)
	h2, b2 := probe(fresh, 100, bb, bb+12)
	if h1 != h2 || b1 != b2 || !reflect.DeepEqual(d.ExportState(), fresh.ExportState()) {
		t.Errorf("post-restore lookup diverged: hit %v/%v bubble %v/%v", h1, h2, b1, b2)
	}

	if err := NewTwoLevel("t2", 2, 2, 32, 4, 2).RestoreState(st); err == nil {
		t.Error("restore into mismatched L2 geometry succeeded")
	}
}
