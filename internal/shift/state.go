package shift

import "fmt"

// HistoryState is the serializable state of the shared History buffer,
// captured for warm-up snapshots: the circular stream buffer, the
// keyless index (raw slots — probe layout depends on insertion order, so
// the array restores verbatim), and the record-side recency filter.
// Diagnostic counters (Records, Filtered) are excluded: they never
// influence a recorded or replayed stream.
type HistoryState struct {
	Buf    []uint64
	Head   int
	Filled bool
	Idx    []int32
	IdxN   int
	Recent [recentDepth]uint64
	RHead  int
	Any    bool
}

// ExportState deep-copies the history's state.
func (h *History) ExportState() HistoryState {
	return HistoryState{
		Buf:    append([]uint64(nil), h.buf...),
		Head:   h.head,
		Filled: h.filled,
		Idx:    append([]int32(nil), h.idx...),
		IdxN:   h.idxN,
		Recent: h.recent,
		RHead:  h.rhead,
		Any:    h.any,
	}
}

// RestoreState overwrites the history from a snapshot; buffer and index
// sizes must match (both are fixed by Config.HistoryEntries, which the
// snapshot key pins).
func (h *History) RestoreState(st HistoryState) error {
	if len(st.Buf) != len(h.buf) || len(st.Idx) != len(h.idx) {
		return fmt.Errorf("shift: history snapshot sized %d/%d does not match buffer %d/%d",
			len(st.Buf), len(st.Idx), len(h.buf), len(h.idx))
	}
	if st.Head < 0 || st.Head >= len(st.Buf) || st.RHead < 0 || st.RHead >= recentDepth {
		return fmt.Errorf("shift: history snapshot write positions %d/%d out of range", st.Head, st.RHead)
	}
	// Live index entries point into the buffer, one at most per buffer
	// slot, which leaves the open-addressed table the empty slots its
	// probes stop at.
	live := 0
	for _, p := range st.Idx {
		if p >= int32(len(st.Buf)) || p < -1 {
			return fmt.Errorf("shift: history snapshot index points at %d of %d", p, len(st.Buf))
		}
		if p >= 0 {
			live++
		}
	}
	if live != st.IdxN || live > len(st.Buf) {
		return fmt.Errorf("shift: history snapshot index holds %d entries, claims %d", live, st.IdxN)
	}
	copy(h.buf, st.Buf)
	h.head = st.Head
	h.filled = st.Filled
	copy(h.idx, st.Idx)
	h.idxN = st.IdxN
	h.recent = st.Recent
	h.rhead = st.RHead
	h.any = st.Any
	return nil
}
