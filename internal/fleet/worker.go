package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"confluence/internal/backoff"
)

// Coordinator publishes the grid into o.Dir and then participates in it
// until every cell is resolved (stored or quarantined). The coordinator
// is worker zero: with no external workers attached it executes the whole
// grid inline, so single-process behavior is the zero-worker special case
// of the fleet, not a separate code path. Options.LeaseTTL and
// MaxAttempts are defaulted here and published in the manifest, which is
// where attaching workers inherit them from.
//
// The returned Report is non-nil whenever err is nil; a grid that
// finished with quarantined cells reports them in Report.Poisoned (and
// Report.Failed()), which callers surface as a degraded-but-complete
// grid rather than an error.
func Coordinator(ctx context.Context, o Options, storeDir string, cells []Cell) (*Report, error) {
	if o.Run == nil {
		return nil, fmt.Errorf("fleet: Options.Run is required")
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("fleet: empty grid")
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = defaultLeaseTTL
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = defaultMaxAttempts
	}
	m := Manifest{
		Version:     ProtocolVersion,
		StoreDir:    storeDir,
		LeaseTTLMS:  o.LeaseTTL.Milliseconds(),
		MaxAttempts: o.MaxAttempts,
		Cells:       cells,
	}
	if err := WriteManifest(o.Dir, m); err != nil {
		return nil, err
	}
	return participate(ctx, o, m)
}

// Worker attaches to an existing (or imminent) fleet directory and works
// cells until the grid is resolved, then returns its Report. Lease TTL
// and the retry budget come from the manifest unless the options override
// them; the store comes from the manifest unless Options.Store is set.
func Worker(ctx context.Context, o Options) (*Report, error) {
	if o.Run == nil {
		return nil, fmt.Errorf("fleet: Options.Run is required")
	}
	m, err := WaitManifest(ctx, o.Dir)
	if err != nil {
		return nil, err
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = time.Duration(m.LeaseTTLMS) * time.Millisecond
		if o.LeaseTTL <= 0 {
			o.LeaseTTL = defaultLeaseTTL
		}
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = m.MaxAttempts
		if o.MaxAttempts <= 0 {
			o.MaxAttempts = defaultMaxAttempts
		}
	}
	return participate(ctx, o, m)
}

// participate is the work-stealing loop shared by coordinators and
// workers. Each pass scans the grid from a participant-specific offset
// (spreading concurrent participants across the cell list), resolving
// every cell it can: already stored → done; poison marker → quarantined;
// free or expired lease → claim and run. A pass that makes no progress
// backs off with deterministic jitter before rescanning, so idle
// participants poll the directory gently while others hold leases.
func participate(ctx context.Context, o Options, m Manifest) (*Report, error) {
	if o.WorkerID == "" {
		o.WorkerID = defaultWorkerID()
	}
	if !validCellID(o.WorkerID) {
		return nil, fmt.Errorf("fleet: worker ID %q is not filename-safe", o.WorkerID)
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTTL / 3
	}
	if o.Backoff == (backoff.Policy{}) {
		o.Backoff = defaultIdleBackoff
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if len(m.Cells) == 0 {
		return nil, fmt.Errorf("fleet: manifest in %s describes an empty grid", o.Dir)
	}
	st, err := o.openStore(m)
	if err != nil {
		return nil, err
	}

	// The scan offset and the idle jitter both derive from the worker ID,
	// so a test fleet with fixed IDs replays identically.
	h := fnv.New64a()
	h.Write([]byte(o.WorkerID))
	rng := rand.New(rand.NewPCG(h.Sum64(), 0xf1ee7))
	offset := int(h.Sum64() % uint64(len(m.Cells)))

	rep := &Report{}
	resolved := make([]bool, len(m.Cells)) // done or quarantined, from our view
	idle := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		progressed := false
		remaining := 0
		for i := range m.Cells {
			idx := (i + offset) % len(m.Cells)
			if resolved[idx] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			switch o.workCell(ctx, st, m.Cells[idx], rep) {
			case cellResolved:
				resolved[idx] = true
				progressed = true
			case cellProgress:
				progressed = true
				remaining++
			case cellBlocked:
				remaining++
			}
		}
		if remaining == 0 {
			rep.Poisoned = o.collectPoisons(m)
			return rep, nil
		}
		if progressed {
			idle = 0
			continue
		}
		idle++
		if !o.Backoff.Sleep(idle-1, rng, ctx.Done()) {
			return nil, ctx.Err()
		}
	}
}

// defaultIdleBackoff paces the no-claimable-cell rescan: quick first
// retry, settling to a fraction of typical lease TTLs so an idle worker
// notices an expired lease promptly without hammering the directory.
var defaultIdleBackoff = backoff.Policy{
	Base: 25 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Jitter: 0.5,
}

// cellOutcome classifies one scan visit to a cell.
type cellOutcome int

const (
	cellResolved cellOutcome = iota // stored or quarantined; never look again
	cellProgress                    // we ran/failed an attempt; rescan immediately
	cellBlocked                     // someone else holds a live lease
)

// workCell resolves one cell as far as this scan can take it.
func (o *Options) workCell(ctx context.Context, st Store, cell Cell, rep *Report) cellOutcome {
	if st.Has(cell.Key) {
		rep.Hits++
		o.emit(Event{Type: EventHit, Cell: cell.ID, Worker: o.WorkerID})
		return cellResolved
	}
	if _, poisoned := o.readPoison(cell.ID); poisoned {
		return cellResolved
	}
	claimed, stole := o.tryClaim(cell.ID, o.LeaseTTL, o.Now())
	if !claimed {
		return cellBlocked
	}
	if stole {
		rep.Steals++
		o.emit(Event{Type: EventSteal, Cell: cell.ID, Worker: o.WorkerID})
	}
	o.emit(Event{Type: EventClaim, Cell: cell.ID, Worker: o.WorkerID})
	o.Chaos.onClaimed() // may SIGKILL the process: the preemption case

	// Between our scan's store check and winning the claim, the previous
	// holder may have finished; re-check before burning an attempt.
	if st.Has(cell.Key) {
		o.release(cell.ID)
		rep.Hits++
		o.emit(Event{Type: EventHit, Cell: cell.ID, Worker: o.WorkerID})
		return cellResolved
	}

	attempt := o.bumpAttempts(cell.ID)
	if attempt > o.MaxAttempts {
		// The budget was consumed by claimants that never reported back —
		// workers that died holding the lease. Quarantine with whatever
		// error the ledger managed to record.
		rec := o.readAttempts(cell.ID)
		o.quarantine(cell.ID, rec.Count-1, rec.LastErr)
		o.release(cell.ID)
		o.emit(Event{Type: EventPoison, Cell: cell.ID, Worker: o.WorkerID, Attempt: rec.Count - 1, Err: rec.LastErr})
		return cellResolved
	}

	runErr := o.runLeased(ctx, st, cell)
	switch {
	case runErr == nil:
		o.cleanupCell(cell.ID)
		o.release(cell.ID)
		rep.Completed++
		o.emit(Event{Type: EventDone, Cell: cell.ID, Worker: o.WorkerID, Attempt: attempt})
		return cellResolved
	case ctx.Err() != nil:
		// Our own shutdown, not the cell's fault: release without
		// charging the failure so another worker retries immediately.
		o.release(cell.ID)
		return cellBlocked
	default:
		o.recordFailure(cell.ID, attempt, runErr)
		o.emit(Event{Type: EventFail, Cell: cell.ID, Worker: o.WorkerID, Attempt: attempt, Err: runErr.Error()})
		if attempt >= o.MaxAttempts {
			o.quarantine(cell.ID, attempt, runErr.Error())
			o.emit(Event{Type: EventPoison, Cell: cell.ID, Worker: o.WorkerID, Attempt: attempt, Err: runErr.Error()})
			o.release(cell.ID)
			return cellResolved
		}
		o.release(cell.ID)
		return cellProgress
	}
}

// runLeased executes the cell under a heartbeat that renews the lease
// every o.Heartbeat (unless chaos stalls it), then persists the payload.
// The heartbeat stopping because the lease was lost does NOT abort the
// run: the result write is idempotent by key, so finishing is strictly
// better than wasting the work.
func (o *Options) runLeased(ctx context.Context, st Store, cell Cell) error {
	stopBeat := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		t := time.NewTicker(o.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if o.Chaos.stallRenewals() {
					continue
				}
				if !o.renew(cell.ID, o.LeaseTTL, o.Now()) {
					return // lease lost; keep running, stop renewing
				}
			}
		}
	}()
	runErr := o.failRunOr(ctx, st, cell)
	close(stopBeat)
	<-beatDone
	return runErr
}

// failRunOr applies the FailCell chaos gate, then runs the cell and
// persists its payload through the chaos-wrapped store.
func (o *Options) failRunOr(ctx context.Context, st Store, cell Cell) error {
	if err := o.Chaos.failRun(cell.ID); err != nil {
		return err
	}
	payload, err := o.Run(ctx, cell)
	if err != nil {
		return err
	}
	return o.Chaos.put(st, cell.Key, payload)
}

// collectPoisons scans the quarantine markers in manifest order, so every
// participant reports the identical set.
func (o *Options) collectPoisons(m Manifest) []Poison {
	var out []Poison
	for _, c := range m.Cells {
		if p, ok := o.readPoison(c.ID); ok {
			out = append(out, p)
		}
	}
	return out
}

// emit forwards an event to the observer, if any.
func (o *Options) emit(e Event) {
	if o.OnEvent != nil {
		o.OnEvent(e)
	}
}
