package fleet

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"
)

// lease is the claim record for one cell, stored as <id>.lease in the
// fleet directory. Claim creates it exclusively; heartbeat renewal
// rewrites it atomically with a pushed-out expiry; a scanner that finds
// it expired reclaims it (see steal).
type lease struct {
	Owner   string `json:"owner"`
	Attempt int    `json:"attempt"`
	Expires int64  `json:"expires_unix_nano"`
}

// attemptRecord is the durable per-cell retry ledger, <id>.attempts.
// Count is incremented by each claimant *before* running, so a worker
// that dies mid-cell still consumed budget — that is exactly how a cell
// that kills its workers gets quarantined. The file is only ever written
// under the cell's lease, so writers do not race (a stolen-lease stale
// writer can lose an increment; the budget is a bound on useful work, not
// an exact count, and the store's idempotence makes the overlap safe).
type attemptRecord struct {
	Count   int    `json:"count"`
	LastErr string `json:"last_err,omitempty"`
}

func (o *Options) leasePath(id string) string   { return filepath.Join(o.Dir, id+leaseSuffix) }
func (o *Options) attemptPath(id string) string { return filepath.Join(o.Dir, id+attemptSuffix) }
func (o *Options) poisonPath(id string) string  { return filepath.Join(o.Dir, id+poisonSuffix) }

// tryClaim attempts to win cell id's lease: first a fresh exclusive
// create, then — if a lease exists but has expired — a steal. It returns
// whether the claim succeeded and whether it went through a steal.
func (o *Options) tryClaim(id string, ttl time.Duration, now time.Time) (claimed, stole bool) {
	if o.claimExclusive(id, ttl, now) {
		return true, false
	}
	if !o.stealExpired(id, ttl, now) {
		return false, false
	}
	// The tombstone rename was won; the path is free until some other
	// claimant races us to the create. Losing that race is fine — the
	// cell is claimed by someone.
	return o.claimExclusive(id, ttl, now), true
}

// claimExclusive wins a free lease path with O_CREATE|O_EXCL — the
// filesystem's atomic claim primitive. The lease body is written after
// the create; a claimant killed inside that window leaves a torn lease
// file, which scanners age out by mtime (see leaseExpired).
func (o *Options) claimExclusive(id string, ttl time.Duration, now time.Time) bool {
	f, err := os.OpenFile(o.leasePath(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	data, _ := json.Marshal(lease{Owner: o.WorkerID, Expires: now.Add(ttl).UnixNano()})
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(o.leasePath(id))
		return false
	}
	return true
}

// stealExpired reclaims an expired lease. Reclaim must be serialized —
// two scanners that both see the lease expired must not both "remove and
// re-create" (the second remove would destroy the first's fresh claim).
// Renaming the lease to a reclaimer-unique tombstone is that serialization:
// exactly one rename succeeds, the loser gets ENOENT and moves on.
func (o *Options) stealExpired(id string, ttl time.Duration, now time.Time) bool {
	path := o.leasePath(id)
	if !leaseExpired(path, ttl, now) {
		return false
	}
	tomb := path + ".reap-" + o.WorkerID
	if err := os.Rename(path, tomb); err != nil {
		return false // someone else reaped it, or the owner released it
	}
	os.Remove(tomb)
	return true
}

// leaseExpired reports whether the lease at path is past its expiry. A
// torn or unparsable lease (a claimant killed mid-write) is judged by
// file age instead, with the same TTL.
func leaseExpired(path string, ttl time.Duration, now time.Time) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false // gone: nothing to steal
	}
	var l lease
	if err := json.Unmarshal(data, &l); err == nil && l.Expires > 0 {
		return now.UnixNano() > l.Expires
	}
	info, err := os.Stat(path)
	if err != nil {
		return false
	}
	return now.Sub(info.ModTime()) > ttl
}

// renew pushes the lease's expiry out, atomically. It reports false when
// the lease is no longer ours (stolen after an expiry, or released) — the
// holder should stop renewing but may finish the cell: the result write
// is idempotent, so a stale finisher is waste, not corruption.
func (o *Options) renew(id string, ttl time.Duration, now time.Time) bool {
	path := o.leasePath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var l lease
	if err := json.Unmarshal(data, &l); err != nil || l.Owner != o.WorkerID {
		return false
	}
	l.Expires = now.Add(ttl).UnixNano()
	out, _ := json.Marshal(l)
	return writeFileAtomic(path, out) == nil
}

// release drops our lease after finishing (or failing) a cell. A missing
// file means the lease was stolen while we ran — already released.
func (o *Options) release(id string) {
	os.Remove(o.leasePath(id))
}

// bumpAttempts charges one run against the cell's budget and returns the
// new count. Called holding the lease. Read errors (first claim, or a
// torn file) start the ledger fresh rather than failing the claim. The
// count saturates instead of wrapping, so a ledger at the largest int
// stays over any budget.
func (o *Options) bumpAttempts(id string) int {
	rec := o.readAttempts(id)
	if rec.Count < math.MaxInt {
		rec.Count++
	}
	data, _ := json.Marshal(rec)
	if err := writeFileAtomic(o.attemptPath(id), data); err != nil {
		// A ledger that cannot be written still lets the cell run; the
		// budget just cannot advance. Poisoning then relies on a later
		// successful write — degraded, not wrong.
		return rec.Count
	}
	return rec.Count
}

// readAttempts loads the cell's retry ledger; absent or torn reads as
// zero attempts. A negative count is torn too: no run ever wrote one,
// and honouring it would buy the cell extra runs.
func (o *Options) readAttempts(id string) attemptRecord {
	var rec attemptRecord
	data, err := os.ReadFile(o.attemptPath(id))
	if err != nil {
		return rec
	}
	if err := json.Unmarshal(data, &rec); err != nil || rec.Count < 0 {
		return attemptRecord{}
	}
	return rec
}

// recordFailure stores the attempt's error as the cell's last known
// failure, for the quarantine report. Called holding the lease.
func (o *Options) recordFailure(id string, count int, runErr error) {
	rec := attemptRecord{Count: count, LastErr: runErr.Error()}
	data, _ := json.Marshal(rec)
	writeFileAtomic(o.attemptPath(id), data)
}

// quarantine parks the cell: a durable poison marker every participant's
// scan treats as terminal. Called holding the lease, so exactly one
// participant writes it.
func (o *Options) quarantine(id string, attempts int, lastErr string) error {
	if lastErr == "" {
		lastErr = "worker died mid-cell (no error recorded)"
	}
	p := Poison{CellID: id, Attempts: attempts, LastErr: lastErr}
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return writeFileAtomic(o.poisonPath(id), data)
}

// readPoison loads a cell's quarantine marker, if present.
func (o *Options) readPoison(id string) (Poison, bool) {
	data, err := os.ReadFile(o.poisonPath(id))
	if err != nil {
		return Poison{}, false
	}
	var p Poison
	if err := json.Unmarshal(data, &p); err != nil {
		// A torn poison file still parks the cell; report what we know.
		return Poison{CellID: id, LastErr: "unreadable poison marker"}, true
	}
	return p, true
}

// cleanupCell removes a completed cell's retry ledger (best effort; a
// concurrent remover hitting ENOENT is fine, and leftover debris is
// harmless — completion is judged by the store, never by these files).
func (o *Options) cleanupCell(id string) {
	os.Remove(o.attemptPath(id))
}
