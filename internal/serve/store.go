package serve

import (
	"encoding/json"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/store"
)

// jobKeyMaterial is the canonical serialization a job's store key is
// hashed from: the result-determining JobSpec fields, normalized, plus the
// code version. Scheduling knobs are absent — Priority orders the queue
// and Parallelism/IntraParallelism split goroutines, none of which can
// change results. The spec's no-op compatibility field stays as sent, so
// the job key of every accepted spec stays what it was.
type jobKeyMaterial struct {
	Version string             `json:"version"`
	Spec    confluence.JobSpec `json:"spec"`
}

// jobStoreKey derives the durable store key for a validated spec. The
// second return is false for specs the job level does not cache: trace
// replays (their identity includes file contents the spec does not carry;
// the per-cell store still caches those runs by capture listing).
func jobStoreKey(spec *confluence.JobSpec) (string, bool) {
	if spec.TraceDir != "" {
		return "", false
	}
	norm := *spec
	norm.Kind = spec.NormKind()
	norm.Priority = 0
	norm.Parallelism = 0
	norm.IntraParallelism = 0
	// Resolve the zero-means-default sentinels so an explicit default and
	// an omitted field address the same entry.
	sc := spec.Scale()
	norm.Cores, norm.WarmupInstr, norm.MeasureInstr = sc.Cores, sc.Warmup, sc.Measure
	material, err := json.Marshal(jobKeyMaterial{Version: experiments.ResultVersion, Spec: norm})
	if err != nil {
		return "", false
	}
	return store.Key(material), true
}

// encodeJobResult serializes a finished job's result for Store.Put.
func encodeJobResult(res *Result) ([]byte, error) { return json.Marshal(res) }

// decodeJobResult parses a stored payload; malformed or empty payloads
// report ok = false (a store miss, the job simply runs).
func decodeJobResult(payload []byte) (*Result, bool) {
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil || res.Kind == "" {
		return nil, false
	}
	return &res, true
}

// completeFromStore replays a stored result onto a freshly-minted job: the
// same event sequence a live run appends (started, one cell per completed
// simulation for point/sweep jobs, done), so SSE consumers and pollers see
// a store-served job exactly as they would a fast live one.
func (j *Job) completeFromStore(res *Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(Event{Type: "started"})
	if res.Kind != confluence.KindMixStudy {
		for i := range res.Cells {
			c := &res.Cells[i]
			cell := experiments.ProgressEvent{Mix: c.Mix, Design: c.Design}
			if c.Stats != nil {
				cell.IPC = c.Stats.IPC()
				cell.BTBMPKI = c.Stats.BTBMPKI()
				cell.L1IMPKI = c.Stats.L1IMPKI()
			}
			j.appendEventLocked(Event{Type: "cell", Cell: &cell})
		}
	}
	j.state = StateDone
	j.result = res
	j.appendEventLocked(Event{Type: "done"})
}
