package shift

import (
	"reflect"
	"testing"
)

func TestHistoryStateRoundTrip(t *testing.T) {
	h := NewHistory(256)
	for i := 0; i < 600; i++ { // wraps the circular buffer
		h.Record(uint64(0x4000 + (i%300)*64))
	}
	st := h.ExportState()

	fresh := NewHistory(256)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.ExportState(), st) {
		t.Error("re-exported state differs from the snapshot")
	}
	// A restored history must replay identically: record the same block
	// into both and re-compare (index and recency filter included).
	h.Record(0x9000)
	fresh.Record(0x9000)
	if !reflect.DeepEqual(fresh.ExportState(), h.ExportState()) {
		t.Error("restored history diverged on the next Record")
	}
}

func TestHistoryStateRejectsSizeMismatch(t *testing.T) {
	st := NewHistory(256).ExportState()
	if err := NewHistory(128).RestoreState(st); err == nil {
		t.Error("restore into mismatched buffer size succeeded")
	}
}

// TestHistoryStateRejectsBadPositions: write positions outside the
// buffer, index entries pointing past it, and an index without the empty
// slot its probes stop at are no live state; restore fails closed.
func TestHistoryStateRejectsBadPositions(t *testing.T) {
	h := NewHistory(64)
	for i := 0; i < 100; i++ {
		h.Record(uint64(0x4000 + i*64))
	}
	st := h.ExportState()
	for name, mutate := range map[string]func(*HistoryState){
		"head":      func(s *HistoryState) { s.Head = -1 },
		"head-end":  func(s *HistoryState) { s.Head = len(s.Buf) },
		"rhead":     func(s *HistoryState) { s.RHead = recentDepth },
		"idx-range": func(s *HistoryState) { s.Idx[0] = int32(len(s.Buf)) },
		"idx-count": func(s *HistoryState) { s.IdxN++ },
		"idx-full": func(s *HistoryState) {
			for i := range s.Idx {
				s.Idx[i] = 0
			}
			s.IdxN = len(s.Idx)
		},
	} {
		bad := st
		bad.Idx = append([]int32(nil), st.Idx...)
		mutate(&bad)
		if err := NewHistory(64).RestoreState(bad); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}
