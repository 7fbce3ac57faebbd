package serve

import (
	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/store"
)

// storedResult answers a spec of any kind from the per-cell store st
// (none when nil): the result assembled from its cells' entries, and each
// cell's progress event in cell order. It stops at the first cell with no
// valid entry, as it does for a spec whose cells cannot be named (an
// unreadable capture), and returns nil; the job must then run (and
// re-simulates only what is missing, since every cell it runs consults
// the same store).
func storedResult(st *store.Store, spec *confluence.JobSpec) (*Result, []experiments.ProgressEvent) {
	if st == nil {
		return nil, nil
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, nil
	}
	entries := make([]experiments.StoreEntry, len(cells))
	events := make([]experiments.ProgressEvent, len(cells))
	for i, c := range cells {
		payload, hit := st.Get(c.Key)
		if !hit {
			return nil, nil
		}
		e, ok := experiments.DecodeStoreEntry(payload)
		if !ok {
			return nil, nil
		}
		entries[i] = e
		events[i] = experiments.CellProgress(c.Cell, e.Stats)
	}
	res, err := assemble(spec, cells, entries)
	if err != nil {
		return nil, nil
	}
	return res, events
}

// completeFromStore replays a stored result onto a freshly-minted job: the
// same event sequence a live run appends (started, one cell per
// simulation, done), so SSE consumers and pollers see a store-served job
// exactly as they would a fast live one.
func (j *Job) completeFromStore(res *Result, cells []experiments.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(Event{Type: "started"})
	for i := range cells {
		j.appendEventLocked(Event{Type: "cell", Cell: &cells[i]})
	}
	j.state = StateDone
	j.result = res
	j.appendEventLocked(Event{Type: "done"})
}
