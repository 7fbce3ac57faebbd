// Package cache provides the set-associative cache model used for the L1-I
// and the LLC, the small fully-associative LRU buffer (Victim) behind the
// baseline BTB's victim buffer, PhantomBTB's prefetch buffer and AirBTB's
// overflow buffer, and an in-flight fill table for prefetch timeliness
// tracking.
//
// Caches here track only presence (tags), not data: the simulator reads
// instruction bytes straight from the program image, so content correctness
// is never at stake — only hit/miss behaviour and replacement.
package cache

import "fmt"

// Stats counts accesses. Misses includes cold misses.
type Stats struct {
	Hits, Misses uint64
	Insertions   uint64
	Evictions    uint64
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Reset zeroes the counters (used at the warmup/measure boundary).
func (s *Stats) Reset() { *s = Stats{} }

// Cache is a set-associative tag store with true-LRU replacement, keyed by
// opaque uint64 keys (block addresses or BTB tags).
//
// Layout: the valid ways of a set are a contiguous prefix [0, occ) — new
// keys are appended and evictions replace in place — and recency is a
// strictly increasing per-cache use-stamp. The victim of a full set is the
// minimum stamp, which is exactly the least-recently-used way (stamps are
// unique), so the policy is identical to an ordered-LRU list while a touch
// is a single store instead of shifting the set. Presence and the victim
// way are resolved in one scan on Insert.
type Cache struct {
	sets  int
	ways  int
	keys  []uint64 // sets*ways; valid ways are the prefix [0, occ) of a set
	stamp []uint64 // use-stamps, parallel to keys
	occ   []uint16 // valid ways per set
	clock uint64
	n     int // total valid entries

	// mru/mruSlot/mruOK cache the key and slot of the most recent Lookup
	// hit. While mruOK holds, that key carries the cache-wide maximum stamp
	// (no other hit or insert has happened since), so a repeated Lookup can
	// skip both the scan and the re-stamp — re-stamping the freshest entry
	// is a no-op for the LRU order. Inserts and invalidations clear it;
	// hits on other keys retarget it.
	mru     uint64
	mruSlot int
	mruOK   bool

	stats Stats
}

// New creates a cache with the given number of sets (power of two) and ways.
func New(sets, ways int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets must be a positive power of two, got %d", sets))
	}
	if ways <= 0 || ways > 1<<16-1 {
		panic("cache: ways out of range")
	}
	return &Cache{
		sets:  sets,
		ways:  ways,
		keys:  make([]uint64, sets*ways),
		stamp: make([]uint64, sets*ways),
		occ:   make([]uint16, sets),
	}
}

// NewBytes creates a cache sized in bytes for a given block size.
func NewBytes(totalBytes, ways, blockBytes int) *Cache {
	blocks := totalBytes / blockBytes
	return New(blocks/ways, ways)
}

// Sets and Ways report geometry; Capacity the total entry count.
func (c *Cache) Sets() int     { return c.sets }
func (c *Cache) Ways() int     { return c.ways }
func (c *Cache) Capacity() int { return c.sets * c.ways }

// Stats returns a copy of the counters; ResetStats zeroes them.
func (c *Cache) Stats() Stats { return c.stats }
func (c *Cache) ResetStats()  { c.stats.Reset() }

func (c *Cache) set(key uint64) int { return int(key) & (c.sets - 1) }

func (c *Cache) tick() uint64 {
	c.clock++
	return c.clock
}

// Lookup probes for key, updating LRU and counters on the access (Find
// then Access, in one call).
func (c *Cache) Lookup(key uint64) bool {
	if c.mruOK && key == c.mru {
		c.stats.Hits++
		return true
	}
	s := c.set(key)
	base := s * c.ways
	n := int(c.occ[s])
	for i := 0; i < n; i++ {
		if c.keys[base+i] == key {
			c.stamp[base+i] = c.tick()
			c.mru, c.mruSlot, c.mruOK = key, base+i, true
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Find returns the slot (set*ways + way) holding key, without updating
// LRU or counters; ok is false when key is absent. A slot stays key's
// until an Insert into its set evicts it or an Invalidate in its set
// moves or drops it; Holds tells whether it still is.
func (c *Cache) Find(key uint64) (slot int, ok bool) {
	if c.mruOK && key == c.mru {
		return c.mruSlot, true
	}
	s := c.set(key)
	base := s * c.ways
	n := int(c.occ[s])
	for i := base; i < base+n; i++ {
		if c.keys[i] == key {
			return i, true
		}
	}
	return 0, false
}

// Access applies a Lookup's effects to a Find result: on a hit, the
// LRU touch of slot and a hit count; otherwise a miss count. Find then
// Access is exactly Lookup, so the two calls may sit apart as long as
// hit is rechecked with Holds and key itself is not inserted in between.
func (c *Cache) Access(slot int, hit bool) {
	if !hit {
		c.stats.Misses++
		return
	}
	c.stats.Hits++
	if key := c.keys[slot]; !c.mruOK || key != c.mru {
		c.stamp[slot] = c.tick()
		c.mru, c.mruSlot, c.mruOK = key, slot, true
	}
}

// Holds reports whether slot currently holds key.
func (c *Cache) Holds(slot int, key uint64) bool {
	s := c.set(key)
	base := s * c.ways
	return slot >= base && slot < base+int(c.occ[s]) && c.keys[slot] == key
}

// Contains probes without updating LRU or counters.
func (c *Cache) Contains(key uint64) bool {
	_, ok := c.Find(key)
	return ok
}

// Insert places key at MRU, returning the evicted key if a valid entry was
// displaced. Inserting a present key refreshes its LRU position.
func (c *Cache) Insert(key uint64) (evicted uint64, wasEvicted bool) {
	_, evicted, wasEvicted = c.InsertSlot(key)
	return evicted, wasEvicted
}

// InsertSlot is Insert that also returns the slot key now occupies.
// Presence and the LRU victim are resolved in one scan over the set's
// valid prefix.
func (c *Cache) InsertSlot(key uint64) (slot int, evicted uint64, wasEvicted bool) {
	s := c.set(key)
	base := s * c.ways
	n := int(c.occ[s])
	victim, oldest := 0, ^uint64(0)
	for i := 0; i < n; i++ {
		if c.keys[base+i] == key {
			c.stamp[base+i] = c.tick()
			c.mru, c.mruSlot, c.mruOK = key, base+i, true
			return base + i, 0, false
		}
		if c.stamp[base+i] < oldest {
			oldest, victim = c.stamp[base+i], i
		}
	}
	c.stats.Insertions++
	c.mruOK = false
	if n < c.ways {
		victim = n
		c.occ[s]++
		c.n++
	} else {
		evicted = c.keys[base+victim]
		wasEvicted = true
		c.stats.Evictions++
	}
	c.keys[base+victim] = key
	c.stamp[base+victim] = c.tick()
	return base + victim, evicted, wasEvicted
}

// Invalidate removes key if present, returning whether it was. The last
// valid way swaps into the hole, keeping the valid prefix contiguous.
func (c *Cache) Invalidate(key uint64) bool {
	s := c.set(key)
	base := s * c.ways
	n := int(c.occ[s])
	for i := 0; i < n; i++ {
		if c.keys[base+i] == key {
			c.keys[base+i] = c.keys[base+n-1]
			c.stamp[base+i] = c.stamp[base+n-1]
			c.occ[s]--
			c.n--
			c.mruOK = false
			return true
		}
	}
	return false
}

// Keys appends all resident keys to dst (unspecified order) and returns it.
func (c *Cache) Keys(dst []uint64) []uint64 {
	for s := 0; s < c.sets; s++ {
		base := s * c.ways
		dst = append(dst, c.keys[base:base+int(c.occ[s])]...)
	}
	return dst
}

// Len returns the number of valid entries.
func (c *Cache) Len() int { return c.n }
