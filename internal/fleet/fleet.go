// Package fleet is the coordinator/worker protocol that shards an
// experiment grid across processes — the ephemeral-compute half of the
// "spot instances + persistent state" pattern whose durable half is
// internal/store. A coordinator writes a manifest (the grid's cells, each
// with its content-addressed result key) into a shared directory; any
// number of worker processes attach to the directory and pull unclaimed
// cells work-stealing style. Cells are claimed through atomic lease files
// with a TTL and heartbeat renewal, so a worker that is SIGKILLed,
// preempted, or wedged mid-cell simply loses its lease: the next scanner
// reclaims the expired lease and re-runs the cell.
//
// The protocol's safety story is deliberately layered:
//
//   - Correctness comes from the store, not the leases. Every cell's
//     result lands in the content-addressed store under a key derived from
//     the cell's full inputs, and simulation is deterministic, so a cell
//     that runs twice (a stalled worker finishing after its lease was
//     stolen) writes the same bytes twice. Duplicate execution wastes
//     work; it can never corrupt a result.
//   - Leases are the anti-duplication optimization: claim is atomic
//     (O_CREATE|O_EXCL), renewal is atomic (temp file + rename), and
//     reclaim of an expired lease is serialized by renaming the lease to a
//     reclaimer-unique tombstone — exactly one of N concurrent reclaimers
//     wins the rename, the rest see ENOENT and move on.
//   - Livelock is bounded by the poison quarantine: every claim increments
//     a durable per-cell attempt counter, so a cell that keeps killing its
//     workers (or keeps failing) is parked with its last recorded error
//     after MaxAttempts runs. The rest of the grid completes and the
//     quarantined cells are reported, instead of the fleet re-running the
//     killer cell forever.
//
// A coordinator participates in its own grid (it is worker zero), so a
// fleet with no external workers degrades to inline execution — single
// process behavior, and liveness, are preserved by construction. The
// Chaos hooks inject the failures the design claims to survive: process
// SIGKILL after a claim (mid-cell death), stalled lease renewals, and
// store write errors.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"confluence/internal/backoff"
	"confluence/internal/store"
)

// ProtocolVersion pins the on-disk coordination schema (manifest, lease,
// attempt, and poison file shapes) and what a cell's Spec means. A
// worker refuses a manifest from a different protocol generation instead
// of misreading it. v2: a cell's Spec is its whole job's spec, not a
// point spec of the cell.
const ProtocolVersion = "confluence-fleet-v2"

// Cell is one unit of fleet work: an opaque spec (in practice the
// serialized JobSpec of the job the cell belongs to, which the runner
// expands to find the cell by Key — the fleet does not interpret it) plus
// the content-addressed store key its result must land under. A cell is
// done exactly when the store holds a valid entry for Key.
type Cell struct {
	ID   string          `json:"id"`   // filename-safe, unique within the grid
	Key  string          `json:"key"`  // store key of the cell's result
	Spec json.RawMessage `json:"spec"` // work description handed to the Runner
}

// Manifest is the grid description the coordinator publishes and workers
// poll for: the cells, the store directory results land in, and the lease
// discipline every participant must follow (TTL and retry budget travel
// in the manifest so all processes agree without flag coordination).
type Manifest struct {
	Version     string `json:"version"`
	StoreDir    string `json:"store_dir"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	MaxAttempts int    `json:"max_attempts"`
	Cells       []Cell `json:"cells"`
}

// Store is the durable result store a fleet runs against. *store.Store
// satisfies it; the Chaos harness wraps it to inject write failures.
type Store interface {
	// Has reports whether a valid entry exists under key, without
	// counting a hit or disturbing LRU state.
	Has(key string) bool
	// Put durably stores a cell result. An error fails the attempt (the
	// cell retries under its budget).
	Put(key string, payload []byte) error
}

// Runner executes one cell and returns the payload to store under
// cell.Key. It must be deterministic in the cell spec: re-running a cell
// on another worker must produce the same bytes, which is what makes
// duplicate execution harmless.
type Runner func(ctx context.Context, cell Cell) ([]byte, error)

// Options configures one fleet participant (coordinator or worker).
type Options struct {
	// Dir is the shared coordination directory: manifest, leases,
	// attempt counters, poison markers. It is not the result store.
	Dir string
	// Store is the durable result store. Nil resolves store.Open on the
	// manifest's StoreDir (workers attach with no flags beyond Dir).
	Store Store
	// Run executes one cell. Required for participants; the coordinator
	// runs cells inline through it too.
	Run Runner
	// WorkerID names this participant in leases and events. Empty
	// derives host-pid.
	WorkerID string
	// LeaseTTL is how long a claim stays valid without renewal; a lease
	// older than this is stolen. Zero: coordinator defaults 10s, worker
	// inherits the manifest.
	LeaseTTL time.Duration
	// Heartbeat is the renewal period while running a cell. Zero means
	// LeaseTTL/3.
	Heartbeat time.Duration
	// MaxAttempts is the per-cell retry budget before quarantine. Zero:
	// coordinator defaults 3, worker inherits the manifest.
	MaxAttempts int
	// Backoff paces the idle rescan loop (no claimable cell found) and
	// is jittered deterministically from WorkerID. Zero-valued uses
	// backoff.Default.
	Backoff backoff.Policy
	// Chaos injects faults; nil injects nothing.
	Chaos *Chaos
	// Now is the clock lease deadlines and expiry judgments read; nil
	// means time.Now. Tests inject a fake clock to exercise expiry
	// without sleeping.
	Now func() time.Time
	// OnEvent observes protocol transitions (claims, steals, poisons).
	// Called from the participant's own goroutine, in order.
	OnEvent func(Event)
}

// Event is one observable protocol transition, for logs and tests.
type Event struct {
	Type    EventType
	Cell    string
	Worker  string
	Attempt int
	Err     string
}

// EventType enumerates protocol transitions.
type EventType string

const (
	EventClaim  EventType = "claim"  // won a cell's lease
	EventSteal  EventType = "steal"  // reclaimed an expired lease first
	EventDone   EventType = "done"   // ran a cell and stored its result
	EventHit    EventType = "hit"    // found a cell already stored
	EventFail   EventType = "fail"   // an attempt failed (will retry or poison)
	EventPoison EventType = "poison" // quarantined a cell past its budget
)

// Poison describes one quarantined cell.
type Poison struct {
	CellID   string `json:"cell_id"`
	Attempts int    `json:"attempts"`
	LastErr  string `json:"last_err"`
}

// Report summarizes one participant's view of a finished grid. Poisoned
// is scanned from the shared directory in manifest order, so every
// participant reports the same quarantine set.
type Report struct {
	Completed int // cells this participant ran to a stored result
	Hits      int // cells it found already stored (by anyone)
	Steals    int // expired leases it reclaimed
	Poisoned  []Poison
}

// Failed reports whether the grid finished with quarantined cells.
func (r *Report) Failed() bool { return len(r.Poisoned) > 0 }

const (
	manifestName  = "manifest.json"
	leaseSuffix   = ".lease"
	attemptSuffix = ".attempts"
	poisonSuffix  = ".poison"

	defaultLeaseTTL    = 10 * time.Second
	defaultMaxAttempts = 3
)

// writeFileAtomic writes data to path via a unique temp file and rename,
// so readers never observe a partial file. The temp file lives in the
// destination directory (rename must not cross filesystems).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// WriteManifest publishes the grid into dir (creating it), atomically so
// polling workers never read a torn manifest.
func WriteManifest(dir string, m Manifest) error {
	if err := checkCells(m.Cells); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, manifestName), data); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// ReadManifest loads the grid description from dir. A missing manifest is
// os.ErrNotExist (the coordinator has not published yet); a version
// mismatch is a hard error — a skewed worker must not misinterpret the
// directory. A manifest WriteManifest would refuse is refused here too:
// workers build lease, attempt and poison paths from its cell IDs.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("fleet: manifest in %s: %w", dir, err)
	}
	if m.Version != ProtocolVersion {
		return Manifest{}, fmt.Errorf("fleet: manifest in %s speaks %q, this binary speaks %q", dir, m.Version, ProtocolVersion)
	}
	if err := checkCells(m.Cells); err != nil {
		return Manifest{}, fmt.Errorf("fleet: manifest in %s: %w", dir, err)
	}
	return m, nil
}

// WaitManifest polls dir until a manifest appears or ctx ends. Workers
// may be started before their coordinator; this is the join point.
func WaitManifest(ctx context.Context, dir string) (Manifest, error) {
	pol := backoff.Policy{Base: 20 * time.Millisecond, Max: 500 * time.Millisecond, Factor: 2}
	for attempt := 0; ; attempt++ {
		m, err := ReadManifest(dir)
		if err == nil {
			return m, nil
		}
		if !os.IsNotExist(err) {
			return Manifest{}, err
		}
		if !pol.Sleep(attempt, nil, ctx.Done()) {
			return Manifest{}, ctx.Err()
		}
	}
}

// checkCells enforces what every participant derives file paths and
// results from: each cell ID is filename-safe and unique within the grid,
// and each cell names its store key.
func checkCells(cells []Cell) error {
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if !validCellID(c.ID) {
			return fmt.Errorf("cell ID %q is not filename-safe", c.ID)
		}
		if seen[c.ID] {
			return fmt.Errorf("duplicate cell ID %q", c.ID)
		}
		seen[c.ID] = true
		if c.Key == "" {
			return fmt.Errorf("cell %q has no store key", c.ID)
		}
	}
	return nil
}

// validCellID restricts cell IDs to characters that cannot traverse or
// collide with the protocol's own files.
func validCellID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_'
		if !ok {
			return false
		}
	}
	return true
}

// defaultWorkerID derives a host-unique participant name.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// openStore resolves the participant's store handle: an explicit Options
// store (tests, chaos wrappers) or the manifest's directory.
func (o *Options) openStore(m Manifest) (Store, error) {
	if o.Store != nil {
		return o.Store, nil
	}
	if m.StoreDir == "" {
		return nil, fmt.Errorf("fleet: manifest names no store directory and Options.Store is nil")
	}
	return store.Open(m.StoreDir), nil
}
