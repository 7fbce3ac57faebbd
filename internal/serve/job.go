package serve

import (
	"context"
	"errors"
	"sync"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/frontend"
	"confluence/internal/parallel"
	"confluence/internal/store"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued → running → {done, failed, cancelled}, with queued → cancelled
// for jobs cancelled before a worker picked them up.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's progress stream — the SSE wire format.
// Seq starts at 1 and increases by exactly 1 per event within a job, so a
// client can detect gaps. Cell carries the serialized experiments
// progress event for "cell" events; Error carries the failure message of
// a "failed" event.
type Event struct {
	Seq   int                        `json:"seq"`
	Type  string                     `json:"type"` // queued|started|cell|done|failed|cancelled
	Cell  *experiments.ProgressEvent `json:"cell,omitempty"`
	Error string                     `json:"error,omitempty"`
}

// CellResult is one completed simulation cell of a point or sweep job:
// the full measured stats (aggregate and per core), so a client can
// verify bit-identity against a direct library Run.
type CellResult struct {
	Mix          string            `json:"mix"`
	Design       string            `json:"design"`
	Stats        *frontend.Stats   `json:"stats"`
	PerCore      []*frontend.Stats `json:"per_core,omitempty"`
	OverheadMM2  float64           `json:"overhead_mm2"`
	RelativeArea float64           `json:"relative_area"`
	// Sampled carries the sampling report of a sampled cell (specs with
	// the sample_* fields set); nil in exact mode.
	Sampled *experiments.SampledReport `json:"sampled,omitempty"`
}

// Result is a finished job's payload: Cells for point/sweep jobs, MixRows
// for mixstudy jobs. Row order is canonical (spec expansion order), never
// completion order, so paginated reads are deterministic.
type Result struct {
	Kind    string               `json:"kind"`
	Cells   []CellResult         `json:"cells,omitempty"`
	MixRows []experiments.MixRow `json:"mix_rows,omitempty"`
}

// rowCount returns how many paginatable rows the result holds.
func (r *Result) rowCount() int {
	if r.Kind == confluence.KindMixStudy {
		return len(r.MixRows)
	}
	return len(r.Cells)
}

// rows returns the half-open row range [lo, hi) as a JSON-marshalable
// slice.
func (r *Result) rows(lo, hi int) any {
	if r.Kind == confluence.KindMixStudy {
		return r.MixRows[lo:hi]
	}
	return r.Cells[lo:hi]
}

// Job is one queued/running/finished unit of work.
type Job struct {
	ID       string              `json:"id"`
	Priority int                 `json:"priority"`
	Spec     *confluence.JobSpec `json:"spec"`

	seq       int64 // submission order, tie-break within a priority
	heapIndex int   // position in the queue heap; -1 when not queued

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on every event append
	state  State
	events []Event
	cancel context.CancelFunc // set while running
	result *Result
	errMsg string
}

func newJob(id string, seq int64, spec *confluence.JobSpec) *Job {
	j := &Job{ID: id, Priority: spec.Priority, Spec: spec, seq: seq, heapIndex: -1, state: StateQueued}
	j.cond = sync.NewCond(&j.mu)
	j.appendEventLocked(Event{Type: "queued"})
	return j
}

// appendEventLocked appends e with the next sequence number and wakes
// event waiters. Callers hold j.mu or are the constructor.
func (j *Job) appendEventLocked(e Event) {
	e.Seq = len(j.events) + 1
	j.events = append(j.events, e)
	if j.cond != nil {
		j.cond.Broadcast()
	}
}

// emit appends an event.
func (j *Job) emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(e)
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// eventsSince returns the events after cursor (a previous length) and
// whether the job has reached a terminal state. It blocks until at least
// one new event exists, the job is terminal, or wakeup makes the wait
// observable from outside (the SSE handler broadcasts on client
// disconnect).
func (j *Job) eventsSince(cursor int, cancelled func() bool) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	for len(j.events) <= cursor && !j.state.terminal() && !cancelled() {
		j.cond.Wait()
	}
	// A cursor past the end (a caller claiming more events than exist) can
	// leave the wait on terminal state or cancellation; clamp rather than
	// slice negatively.
	if cursor > len(j.events) {
		cursor = len(j.events)
	}
	evs := make([]Event, len(j.events)-cursor)
	copy(evs, j.events[cursor:])
	return evs, j.state.terminal()
}

// wake re-evaluates eventsSince waiters (used on client disconnect).
func (j *Job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Summary is the list/status view of a job.
type Summary struct {
	ID       string              `json:"id"`
	State    State               `json:"state"`
	Priority int                 `json:"priority"`
	Kind     string              `json:"kind"`
	Error    string              `json:"error,omitempty"`
	Events   int                 `json:"events"`
	Rows     int                 `json:"rows,omitempty"`
	Spec     *confluence.JobSpec `json:"spec,omitempty"`
}

func (j *Job) summary(withSpec bool) Summary {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Summary{
		ID: j.ID, State: j.state, Priority: j.Priority,
		Kind: j.Spec.NormKind(), Error: j.errMsg, Events: len(j.events),
	}
	if j.result != nil {
		s.Rows = j.result.rowCount()
	}
	if withSpec {
		s.Spec = j.Spec
	}
	return s
}

// ExecuteSpec runs a validated job spec to completion, streaming one
// progress event per finished simulation cell to emit (nil for none). It
// is the single execution path shared by the daemon's workers and
// `confluence-sim -job`, and it treats every kind alike: the spec's cells
// (JobSpec.Cells, resolved as RunCtx resolves a Config) run through
// experiments.Stored and Simulate, the two halves of the
// experiments.Execute call RunCtx makes, which is what makes a
// served result bit-identical to a direct Run by construction; the
// result is assembled from their entries. A non-empty storeDir backs
// every cell with the durable per-cell store: each cell reads the store
// first, and a stored cell is neither simulated nor given a program;
// completed cells persist before their progress event. A missing cell
// takes its programs from the process's program table
// (confluence.GenerateCells), so consecutive jobs and cells of one
// workload share one build.
// Within a job, cells fan out across max(1, spec.Parallelism)
// goroutines; the default is serial so one job cannot oversubscribe the
// daemon (the queue's Workers knob governs cross-job concurrency).
func ExecuteSpec(ctx context.Context, spec *confluence.JobSpec, storeDir string, emit func(experiments.ProgressEvent)) (*Result, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	var st *store.Store
	if storeDir != "" {
		st = store.Open(storeDir)
	}
	var emitMu sync.Mutex
	entries := make([]experiments.StoreEntry, len(cells))
	err = parallel.ForEach(ctx, max(1, spec.Parallelism), len(cells), func(ctx context.Context, i int) error {
		e, ok := experiments.Stored(st, cells[i].Key)
		if !ok {
			// A miss takes its programs from the program table into a
			// copy of the cell, so cells stays profile-only and a program
			// no running cell holds can be dropped.
			run := []confluence.JobCell{cells[i]}
			if err := confluence.GenerateCells(run); err != nil {
				return err
			}
			var err error
			if e, err = experiments.Simulate(ctx, run[0].Cell, 0, st); err != nil {
				return err
			}
		}
		entries[i] = e
		if emit != nil {
			emitMu.Lock()
			defer emitMu.Unlock()
			emit(experiments.CellProgress(cells[i].Cell, e.Stats))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(spec, cells, entries)
}

// assemble builds a job's result from its cells' entries (parallel to
// cells): one row per cell for point and sweep jobs, the consolidation
// study's rows (experiments.MixStudySpec.Rows) for a mixstudy. Every
// path that finishes a job assembles it here: a live run, a store hit at
// accept and a fleet.
func assemble(spec *confluence.JobSpec, cells []confluence.JobCell, entries []experiments.StoreEntry) (*Result, error) {
	kind := spec.NormKind()
	if kind == confluence.KindMixStudy {
		study, err := spec.MixStudy()
		if err != nil {
			return nil, err
		}
		rows, err := study.Rows(entries)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: kind, MixRows: rows}, nil
	}
	res := &Result{Kind: kind, Cells: make([]CellResult, len(cells))}
	for i, c := range cells {
		e := entries[i]
		res.Cells[i] = CellResult{
			Mix:          experiments.MixName(c.Cell.Mix),
			Design:       c.Cell.Design.String(),
			Stats:        e.Stats,
			PerCore:      e.PerCore,
			OverheadMM2:  e.OverheadMM2,
			RelativeArea: e.RelativeArea,
			Sampled:      e.Sampled,
		}
	}
	return res, nil
}

// isCancellation reports whether err is a context cancellation (the job
// outcome is then "cancelled", not "failed").
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
