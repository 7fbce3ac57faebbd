package serve

import (
	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/store"
)

// storedResult assembles a point or sweep job's result from the per-cell
// store: one row per cell, in cell order, from the entry stored under the
// cell's key. It stops at the first cell with no valid entry and returns
// nil; the job must then run (and re-simulates only what is missing,
// since every cell it runs consults the same store).
func storedResult(st *store.Store, kind string, cells []confluence.JobCell) *Result {
	res := &Result{Kind: kind, Cells: make([]CellResult, len(cells))}
	for i, c := range cells {
		payload, hit := st.Get(c.Key)
		if !hit {
			return nil
		}
		e, ok := experiments.DecodeStoreEntry(payload)
		if !ok {
			return nil
		}
		res.Cells[i] = CellResult{
			Mix:          c.Mix,
			Design:       c.Spec.Design,
			Stats:        e.Stats,
			PerCore:      e.PerCore,
			OverheadMM2:  e.OverheadMM2,
			RelativeArea: e.RelativeArea,
			Sampled:      e.Sampled,
		}
	}
	return res
}

// completeFromStore replays a stored result onto a freshly-minted job: the
// same event sequence a live run appends (started, one cell per completed
// simulation, done), so SSE consumers and pollers see a store-served job
// exactly as they would a fast live one.
func (j *Job) completeFromStore(res *Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(Event{Type: "started"})
	for i := range res.Cells {
		cell := res.Cells[i].progress()
		j.appendEventLocked(Event{Type: "cell", Cell: &cell})
	}
	j.state = StateDone
	j.result = res
	j.appendEventLocked(Event{Type: "done"})
}
