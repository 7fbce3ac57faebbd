// Package store is a durable, content-addressed result store: the
// persistent half of the experiment engine's memoization. A key is the
// hex SHA-256 of canonical key material (the caller serializes everything
// that determines a result — workload profiles, design point, options,
// instruction counts, code version — see experiments.CellSpec.Key); the
// value is an opaque payload the caller encodes (JSON in practice).
//
// The store is built for preemptible fleet capacity: ephemeral compute,
// persistent state. Its guarantees are accordingly conservative:
//
//   - Writes are atomic: the payload is framed (magic, length, CRC-32C),
//     written to a unique temp file in the store directory, then renamed
//     into place. A reader never observes a half-written entry; a process
//     killed mid-write leaves only a *.tmp file the GC sweeps later.
//   - Reads are corruption-detecting, never corruption-propagating: a
//     torn, truncated, or bit-flipped entry is a miss, not an error. The
//     simulation simply re-runs and rewrites the cell.
//   - Concurrent same-key writers are safe: each writes its own temp file
//     and the last rename wins, so the surviving entry is always one
//     writer's complete, checksummed payload.
//   - The store is size-capped (SetMaxBytes, or the
//     CONFLUENCE_STORE_MAX_BYTES environment variable): when a write
//     pushes the directory over the cap, entries are evicted
//     least-recently-used first (read hits bump an entry's mtime).
//
// Open returns one shared handle per directory within a process, so hit,
// miss, and write counters aggregate across every subsystem using the
// same store.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Key derives the store key for canonical key material: the hex SHA-256
// of the bytes. Equal material means equal key; any semantic change to
// the material (a knob, a seed, the code version) changes the key, which
// is what makes the store content-addressed rather than name-addressed.
func Key(material []byte) string {
	sum := sha256.Sum256(material)
	return hex.EncodeToString(sum[:])
}

// Entry file framing. The magic pins the on-disk schema; bump it when the
// framing (not the payload) changes shape.
const (
	magic      = "CFLSTE01"
	headerSize = len(magic) + 8 + 4 // magic, payload length, CRC-32C

	entrySuffix = ".entry"
	tmpSuffix   = ".tmp"

	// tmpMaxAge is how old a *.tmp file must be before GC treats it as
	// the debris of a killed writer and removes it.
	tmpMaxAge = time.Hour
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Store is a handle on one store directory. Obtain it with Open; the
// zero value is not usable.
type Store struct {
	dir string
	now func() time.Time // injectable clock: LRU touches and tmp aging; nil = wall clock

	mu       sync.Mutex
	maxBytes int64
	size     int64 // cached directory size; -1 until first scan
	dirMade  bool

	hits   atomic.Uint64
	misses atomic.Uint64
	writes atomic.Uint64
}

var (
	registryMu sync.Mutex
	registry   = map[string]*Store{}
)

// Open returns the process-wide handle for dir (creating it on first
// use), so counters and the cached size stay coherent across subsystems
// sharing a store. The directory itself is created lazily on the first
// write; a store that is only ever read from never touches the
// filesystem beyond lookups. The size cap defaults to
// CONFLUENCE_STORE_MAX_BYTES (0 or unset = unlimited); SetMaxBytes
// overrides it.
func Open(dir string) *Store {
	canon := dir
	if abs, err := filepath.Abs(dir); err == nil {
		canon = abs
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if s, ok := registry[canon]; ok {
		return s
	}
	s := &Store{dir: canon, size: -1, maxBytes: envMaxBytes()}
	registry[canon] = s
	return s
}

func envMaxBytes() int64 {
	v := os.Getenv("CONFLUENCE_STORE_MAX_BYTES")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetMaxBytes caps the directory's total entry size; writes that push
// past the cap evict least-recently-used entries. Zero means unlimited.
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = n
}

// Counters returns the handle's lifetime hit/miss/write counts.
func (s *Store) Counters() (hits, misses, writes uint64) {
	return s.hits.Load(), s.misses.Load(), s.writes.Load()
}

// entryPath maps a key onto its entry file. Keys are restricted to the
// hex alphabet Key produces so a key can never traverse out of the store
// directory.
func (s *Store) entryPath(key string) (string, bool) {
	if key == "" || len(key) > 128 {
		return "", false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return "", false
		}
	}
	return filepath.Join(s.dir, key+entrySuffix), true
}

// Get returns the payload stored under key. Every failure mode — no such
// entry, unreadable file, torn or truncated write, checksum mismatch —
// is a miss (nil, false), never an error: a corrupt entry costs a
// re-simulation, not a failed run. A hit bumps the entry's mtime, which
// is the LRU clock the GC evicts by.
func (s *Store) Get(key string) ([]byte, bool) {
	path, ok := s.entryPath(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok := readEntry(path)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	now := s.clock()
	os.Chtimes(path, now, now) // best-effort LRU touch
	return payload, true
}

// Has reports whether a valid entry exists under key, without counting a
// hit or touching the entry's LRU mtime. It is the completion probe the
// fleet's work-stealing scan runs every pass: a coordinator polling N
// cells must not inflate hit counters or perturb eviction order.
func (s *Store) Has(key string) bool {
	path, ok := s.entryPath(key)
	if !ok {
		return false
	}
	_, ok = readEntry(path)
	return ok
}

// clock reads the store's injectable clock, defaulting to the wall
// clock so directly-constructed handles behave like Open'd ones. The
// clock times LRU touches and tmp-file aging only — never simulated
// stats.
func (s *Store) clock() time.Time {
	now := s.now
	if now == nil {
		now = time.Now
	}
	return now()
}

// readEntry reads and validates one framed entry file.
func readEntry(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		return nil, false
	}
	length := binary.LittleEndian.Uint64(data[len(magic):])
	sum := binary.LittleEndian.Uint32(data[len(magic)+8:])
	payload := data[headerSize:]
	if uint64(len(payload)) != length {
		return nil, false // truncated or trailing garbage
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, false // bit rot / torn write
	}
	return payload, true
}

// Put stores payload under key atomically: frame, write to a unique temp
// file, rename into place. Concurrent writers of the same key each
// complete their own rename — the last one wins and the entry is always
// some writer's intact payload. Errors are returned but safe to ignore:
// a failed Put leaves the store no worse than before (persistence is
// best-effort; the in-memory result is already in hand).
func (s *Store) Put(key string, payload []byte) error {
	path, ok := s.entryPath(key)
	if !ok {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if err := s.ensureDir(); err != nil {
		return err
	}

	framed := make([]byte, headerSize+len(payload))
	copy(framed, magic)
	binary.LittleEndian.PutUint64(framed[len(magic):], uint64(len(payload)))
	binary.LittleEndian.PutUint32(framed[len(magic)+8:], crc32.Checksum(payload, crcTable))
	copy(framed[headerSize:], payload)

	tmp, err := os.CreateTemp(s.dir, key+tmpSuffix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	s.accountWrite(int64(len(framed)))
	return nil
}

// ensureDir creates the store directory once.
func (s *Store) ensureDir() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirMade {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.dirMade = true
	return nil
}

// accountWrite folds a completed write into the cached directory size and
// triggers GC past the cap. The cache is approximate under concurrent
// processes (each tracks its own writes between scans); GC rescans before
// evicting, so the cap itself is enforced against real sizes.
func (s *Store) accountWrite(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxBytes <= 0 {
		return
	}
	if s.size >= 0 {
		s.size += n
	}
	if s.size >= 0 && s.size <= s.maxBytes {
		return
	}
	s.gcLocked()
}

// gcLocked rescans the directory and evicts least-recently-used entries
// until total size fits the cap. Stale temp files from killed writers are
// swept too.
//
// The sweep is written for shared directories: in a fleet, several
// processes GC the same store concurrently, so every file this scan saw
// can be gone by the time it acts. ENOENT anywhere — stat after ReadDir,
// or the Remove itself — means another collector (or a corruption-as-miss
// rewrite) got there first: the entry is already collected, its bytes are
// already freed, and the sweep carries on. Only a file that demonstrably
// still exists after a failed Remove keeps its bytes in the total.
func (s *Store) gcLocked() {
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		// Unreadable directory (never created, or racing a teardown):
		// nothing to evict, nothing to account.
		return
	}
	var entries []entry
	var total int64
	now := s.clock()
	for _, de := range dirents {
		name := de.Name()
		info, err := de.Info()
		if err != nil {
			continue // deleted between ReadDir and stat: already collected
		}
		if strings.Contains(name, tmpSuffix) {
			if now.Sub(info.ModTime()) > tmpMaxAge {
				os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		entries = append(entries, entry{filepath.Join(s.dir, name), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(entries, func(i, k int) bool { return entries[i].mtime.Before(entries[k].mtime) })
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		err := os.Remove(e.path)
		if err == nil || errors.Is(err, fs.ErrNotExist) || !fileExists(e.path) {
			total -= e.size // evicted by us or by a concurrent collector
		}
	}
	s.size = total
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Len returns the number of valid-looking entry files currently in the
// store directory (tests and diagnostics; it does not validate framing).
func (s *Store) Len() int {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range dirents {
		if strings.HasSuffix(de.Name(), entrySuffix) {
			n++
		}
	}
	return n
}
