// Package serve is the simulation-as-a-service layer: a job daemon in
// front of the confluence engine. Clients submit JobSpecs (a single
// design point, a sweep, or a consolidation study) to a bounded priority
// queue; a fixed pool of workers executes them through the same
// context-first library entry points a direct caller would use, so a job
// run through the server is bit-identical to the same Run invoked
// directly. Progress streams over SSE as the serialized experiments
// progress events, results page through a stable canonical row order,
// and the service degrades predictably under load: queue-full submissions
// shed with 503, per-client token-bucket quotas reject with 429, and
// shutdown drains gracefully.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/fleet"
	"confluence/internal/store"
)

// Config tunes a Server. The zero value is serviceable: a 64-deep queue,
// 2 workers, quotas disabled.
type Config struct {
	// QueueDepth bounds submitted-but-not-started jobs; a full queue
	// sheds new submissions with 503. Zero means 64.
	QueueDepth int
	// Workers is the number of concurrently executing jobs. Zero means 2.
	Workers int
	// QuotaRPS/QuotaBurst set the per-client token-bucket submission
	// quota (sustained submissions per second, burst depth). QuotaRPS <= 0
	// disables quotas; QuotaBurst < 1 means 1.
	QuotaRPS   float64
	QuotaBurst int
	// MaxBodyBytes bounds a submitted spec's size. Zero means 1 MiB.
	MaxBodyBytes int64
	// StoreDir, when non-empty, backs jobs with the durable per-cell store
	// rooted there — the one result cache, shared with direct library runs
	// (Config.StoreDir), `confluence-sim -store` and `-mix`, and fleet
	// workers on the same directory. A submission of any kind (point,
	// sweep or mixstudy) whose every cell is stored, by any of them,
	// completes at accept with the result assembled from the cell entries
	// (replaying the full event sequence); otherwise the job queues and
	// simulates only its missing cells, each persisting for future
	// submissions and future daemon processes. Empty keeps results in
	// memory only.
	StoreDir string
	// FleetDir, when non-empty (StoreDir required too), routes every job
	// through a lease-based fleet coordinator rooted there:
	// each job publishes its grid under FleetDir/job-<n> and any
	// `confluence-sim -fleet-worker` processes pointed at that directory
	// work cells alongside the daemon. With no workers attached the
	// coordinator simply executes inline, so FleetDir is safe to set
	// unconditionally. Results are byte-identical either way — the final
	// output is always served from the store in canonical order.
	FleetDir string
	// Now overrides the quota clock (tests).
	Now func() time.Time
}

// Server is the job daemon: queue, workers, and HTTP API. Create with
// New, serve Handler(), stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg    Config
	quotas *quotaTable
	store  *store.Store // nil when Config.StoreDir is empty

	runCtx    context.Context // cancels running jobs on Close
	cancelRun context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals workers: queue non-empty or closing
	idle     *sync.Cond // signals drain waiters: queue empty and no job running
	queue    jobQueue
	jobs     map[string]*Job
	order    []*Job // submission order (the pagination order of /jobs)
	nextSeq  int64
	running  int
	draining bool
	closed   bool

	// execute runs one job spec; swapped out by tests that need
	// controllable job durations.
	execute func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error)
}

// New builds and starts a server (its worker pool runs until Close).
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		cfg:    cfg,
		quotas: newQuotaTable(cfg.QuotaRPS, cfg.QuotaBurst, cfg.Now),
		jobs:   make(map[string]*Job),
	}
	storeDir := cfg.StoreDir
	s.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
		return ExecuteSpec(ctx, spec, storeDir, emit)
	}
	if storeDir != "" {
		s.store = store.Open(storeDir)
		if cfg.FleetDir != "" {
			// Each job coordinates in its own subdirectory: concurrent jobs
			// must not share a manifest. The sequence number only needs to be
			// unique within this process; a recycled directory from a dead
			// daemon is harmless (the manifest is rewritten, stale leases
			// expire, completion is judged by the store).
			fleetDir := cfg.FleetDir
			var fleetSeq atomic.Int64
			s.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
				o := fleet.Options{Dir: filepath.Join(fleetDir, fmt.Sprintf("job-%d", fleetSeq.Add(1)))}
				res, _, err := ExecuteSpecFleet(ctx, spec, storeDir, o, emit)
				return res, err
			}
		}
	}
	s.cond = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker pops queued jobs and executes them until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed && s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue.pop()
		s.running++
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		s.running--
		if s.running == 0 && s.queue.Len() == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}

// runJob executes one job through the shared executor, translating the
// outcome into the job's terminal state and event.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued, popped anyway
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	j.appendEventLocked(Event{Type: "started"})
	j.mu.Unlock()

	res, err := s.execute(ctx, j.Spec, func(e experiments.ProgressEvent) {
		cell := e
		j.emit(Event{Type: "cell", Cell: &cell})
	})

	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.appendEventLocked(Event{Type: "done"})
	case isCancellation(err):
		j.state = StateCancelled
		j.appendEventLocked(Event{Type: "cancelled"})
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.appendEventLocked(Event{Type: "failed", Error: j.errMsg})
	}
}

// Submit queues a validated spec, returning the job or ErrQueueFull /
// ErrDraining. It is the programmatic form of POST /jobs. With a result
// store configured, a spec of any kind whose every cell is stored
// returns a job that is already done — it never occupies a queue slot or
// a worker, so stored re-submissions cannot shed live work.
func (s *Server) Submit(spec *confluence.JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The store reads happen outside s.mu: they are filesystem I/O and
	// must not serialize against the queue.
	stored, events := storedResult(s.store, spec)
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if stored == nil && s.queue.Len() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.nextSeq++
	j := newJob(fmt.Sprintf("j%06d", s.nextSeq), s.nextSeq, spec)
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	if stored == nil {
		s.queue.push(j)
		s.cond.Signal()
	}
	s.mu.Unlock()
	if stored != nil {
		j.completeFromStore(stored, events)
	}
	return j, nil
}

// Cancel cancels a job: a queued job leaves the queue immediately
// (freeing its slot), a running job's context is cancelled and the
// engine stops at its next barrier. Cancelling a terminal job is a no-op.
// It reports whether the job exists.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.queue.remove(j)
	if s.running == 0 && s.queue.Len() == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()

	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.appendEventLocked(Event{Type: "cancelled"})
	case StateRunning:
		if j.cancel != nil {
			j.cancel() // runJob emits the terminal event
		}
	}
	j.mu.Unlock()
	return j, true
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Drain stops accepting new submissions (503) and waits until every
// already-accepted job has finished, or ctx expires — the graceful half
// of shutdown. Call Close afterwards to stop the workers (and cancel
// whatever a timed-out drain left running).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for !(s.running == 0 && s.queue.Len() == 0) && !s.closed {
			s.idle.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Unblock the waiter goroutine; the server stays draining.
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Close cancels running jobs, stops the workers, and waits for them to
// exit. Queued jobs that never ran are cancelled.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var orphans []*Job
	for s.queue.Len() > 0 {
		orphans = append(orphans, s.queue.pop())
	}
	s.cancelRun()
	s.cond.Broadcast()
	s.idle.Broadcast()
	s.mu.Unlock()

	for _, j := range orphans {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCancelled
			j.appendEventLocked(Event{Type: "cancelled"})
		}
		j.mu.Unlock()
	}
	s.wg.Wait()
}

// Sentinel submission failures, mapped to 503 by the HTTP layer.
var (
	ErrQueueFull = fmt.Errorf("serve: job queue is full")
	ErrDraining  = fmt.Errorf("serve: server is draining")
)

// Handler returns the HTTP API:
//
//	POST   /jobs                submit a JobSpec (202; 429 over quota; 503 shedding)
//	GET    /jobs                list jobs, ?offset=&limit= paginated
//	GET    /jobs/{id}           one job's status
//	POST   /jobs/{id}/cancel    cancel (idempotent)
//	GET    /jobs/{id}/events    SSE progress stream (replays from the start)
//	GET    /jobs/{id}/result    finished job's rows, ?offset=&limit= paginated
//	GET    /healthz             queue/worker gauges
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// clientKey identifies the quota bucket a request draws from: the
// X-Client-ID header when present (trusted deployments put an API key
// here), else the remote IP.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	key := clientKey(r)
	if !s.quotas.allow(key) {
		w.Header().Set("Retry-After", strconv.Itoa(s.quotas.retryAfter(key)))
		writeError(w, http.StatusTooManyRequests, "client %s is over its submission quota", key)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	spec, err := confluence.ParseJobSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.Submit(spec)
	switch err {
	case nil:
	case ErrQueueFull, ErrDraining:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.summary(true))
}

// listPage is the GET /jobs payload.
type listPage struct {
	Total  int       `json:"total"`
	Offset int       `json:"offset"`
	Limit  int       `json:"limit"`
	Jobs   []Summary `json:"jobs"`
}

// pageBounds clamps offset/limit query parameters onto [0, total). The
// returned offset is the requested (negative-clamped) offset, not the
// row-range start: a page past the end echoes the offset the client asked
// for with an empty row set, so a paginating client that overshoots sees
// its own cursor — offset snapping silently to total used to make such a
// response indistinguishable from the legitimate final page.
func pageBounds(r *http.Request, total, defLimit, maxLimit int) (lo, hi, offset, limit int) {
	offset, _ = strconv.Atoi(r.URL.Query().Get("offset"))
	limit, _ = strconv.Atoi(r.URL.Query().Get("limit"))
	if limit <= 0 {
		limit = defLimit
	}
	if limit > maxLimit {
		limit = maxLimit
	}
	if offset < 0 {
		offset = 0
	}
	lo = offset
	if lo > total {
		lo = total
	}
	hi = lo + limit
	if hi > total {
		hi = total
	}
	return lo, hi, offset, limit
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	order := make([]*Job, len(s.order))
	copy(order, s.order)
	s.mu.Unlock()

	lo, hi, offset, limit := pageBounds(r, len(order), 50, 500)
	page := listPage{Total: len(order), Offset: offset, Limit: limit, Jobs: make([]Summary, 0, hi-lo)}
	for _, j := range order[lo:hi] {
		page.Jobs = append(page.Jobs, j.summary(false))
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.summary(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.summary(false))
}

// resultPage is the GET /jobs/{id}/result payload; Rows is []CellResult
// for point/sweep jobs, []experiments.MixRow for mixstudy jobs.
type resultPage struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Total  int    `json:"total"`
	Offset int    `json:"offset"`
	Limit  int    `json:"limit"`
	Rows   any    `json:"rows"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state, res := j.state, j.result
	j.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusConflict, "job is %s, result not available", state)
		return
	}
	lo, hi, offset, limit := pageBounds(r, res.rowCount(), 100, 1000)
	writeJSON(w, http.StatusOK, resultPage{
		ID: j.ID, Kind: res.Kind, Total: res.rowCount(),
		Offset: offset, Limit: limit, Rows: res.rows(lo, hi),
	})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// Reconnect support: a client that saw events through seq N resumes
	// with ?after=N (or the standard Last-Event-ID header; the query wins
	// when both are present). Seq numbers are dense from 1, so seq N is
	// exactly the first N events — the cursor restarts there and the
	// stream continues gaplessly, including for jobs already terminal
	// (the remaining events replay, then the stream closes as usual).
	cursor := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "after must be a non-negative event seq")
			return
		}
		cursor = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			cursor = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Wake the eventsSince wait when the client goes away.
	ctx := r.Context()
	stopWake := context.AfterFunc(ctx, j.wake)
	defer stopWake()

	enc := json.NewEncoder(w)
	for ctx.Err() == nil {
		evs, terminal := j.eventsSince(cursor, func() bool { return ctx.Err() != nil })
		for _, e := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", e.Seq, e.Type)
			enc.Encode(e) // Encode appends the newline SSE needs
			fmt.Fprint(w, "\n")
		}
		cursor += len(evs)
		fl.Flush()
		if terminal {
			return
		}
	}
}

// health is the GET /healthz payload.
type health struct {
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Jobs     int  `json:"jobs"`
	Draining bool `json:"draining"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := health{Queued: s.queue.Len(), Running: s.running, Jobs: len(s.jobs), Draining: s.draining}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}
