package cache

import "fmt"

// Assoc is a set-associative, true-LRU key/value store. It backs every
// tagged predictor structure in the simulator (BTB levels, PhantomBTB's
// virtualized group store) the way Cache backs plain presence tracking.
//
// Like Cache, the valid ways of a set are a contiguous prefix tracked by a
// per-set counter, and recency is a strictly increasing use-stamp: the LRU
// victim is the minimum stamp, identical in policy to an ordered list but
// with no key/value shifting on a touch — which matters here, where values
// (BTB entries, Phantom temporal groups) can be tens of bytes each.
type Assoc[V any] struct {
	sets, ways int
	keys       []uint64
	vals       []V
	stamp      []uint64
	occ        []uint16 // valid ways per set (prefix [0, occ))
	clock      uint64
	n          int

	// mru/mruOK cache the most recent hit's key and way (see Cache.mru):
	// while valid, that key holds the cache-wide maximum stamp, so a
	// repeated lookup reads the value back without a scan or a re-stamp.
	mru    uint64
	mruWay int
	mruOK  bool

	stats Stats
}

// NewAssoc creates a store with sets (power of two) and ways.
func NewAssoc[V any](sets, ways int) *Assoc[V] {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: assoc sets must be a positive power of two, got %d", sets))
	}
	if ways <= 0 || ways > 1<<16-1 {
		panic("cache: assoc ways out of range")
	}
	return &Assoc[V]{
		sets:  sets,
		ways:  ways,
		keys:  make([]uint64, sets*ways),
		vals:  make([]V, sets*ways),
		stamp: make([]uint64, sets*ways),
		occ:   make([]uint16, sets),
	}
}

// Capacity returns sets*ways; Sets and Ways the geometry.
func (a *Assoc[V]) Capacity() int { return a.sets * a.ways }
func (a *Assoc[V]) Sets() int     { return a.sets }
func (a *Assoc[V]) Ways() int     { return a.ways }

// Stats returns access counters; ResetStats zeroes them.
func (a *Assoc[V]) Stats() Stats { return a.stats }
func (a *Assoc[V]) ResetStats()  { a.stats.Reset() }

func (a *Assoc[V]) set(key uint64) int { return int(key) & (a.sets - 1) }

func (a *Assoc[V]) tick() uint64 {
	a.clock++
	return a.clock
}

// Lookup probes for key, refreshing LRU on hit.
func (a *Assoc[V]) Lookup(key uint64) (V, bool) {
	if a.mruOK && key == a.mru {
		a.stats.Hits++
		return a.vals[a.mruWay], true
	}
	s := a.set(key)
	base := s * a.ways
	n := int(a.occ[s])
	for i := 0; i < n; i++ {
		if a.keys[base+i] == key {
			a.stamp[base+i] = a.tick()
			a.mru, a.mruWay, a.mruOK = key, base+i, true
			a.stats.Hits++
			return a.vals[base+i], true
		}
	}
	var zero V
	a.stats.Misses++
	return zero, false
}

// Contains probes without LRU or counter updates.
func (a *Assoc[V]) Contains(key uint64) bool {
	s := a.set(key)
	base := s * a.ways
	n := int(a.occ[s])
	for i := 0; i < n; i++ {
		if a.keys[base+i] == key {
			return true
		}
	}
	return false
}

// Probe is Lookup returning an index instead of the value: on a hit,
// the index of key's way; on a miss, the index Insert(key) would fill —
// the set's first free way, else its LRU way, which a plain Lookup miss
// does not spend a scan on. The index stays valid for Put until the next
// Put, Insert or Invalidate.
func (a *Assoc[V]) Probe(key uint64) (int, bool) {
	if a.mruOK && key == a.mru {
		a.stats.Hits++
		return a.mruWay, true
	}
	i, ok := a.find(key)
	if ok {
		a.stamp[i] = a.tick()
		a.mru, a.mruWay, a.mruOK = key, i, true
		a.stats.Hits++
	} else {
		a.stats.Misses++
	}
	return i, ok
}

// find returns the index of key's way and true, or the index Insert
// would fill and false, without updating LRU or counters.
func (a *Assoc[V]) find(key uint64) (int, bool) {
	s := a.set(key)
	base := s * a.ways
	n := int(a.occ[s])
	for i := base; i < base+n; i++ {
		if a.keys[i] == key {
			return i, true
		}
	}
	if n < a.ways {
		return base + n, false
	}
	victim := base
	for i := base + 1; i < base+n; i++ {
		if a.stamp[i] < a.stamp[victim] {
			victim = i
		}
	}
	return victim, false
}

// Insert puts (key, val) at MRU, overwriting a present key in place, and
// returns any displaced entry.
func (a *Assoc[V]) Insert(key uint64, val V) (evKey uint64, evVal V, evicted bool) {
	i, _ := a.find(key)
	return a.Put(i, key, val)
}

// Put is Insert(key, val) at the index a Probe of key returned: it
// overwrites key's way in place when i holds key, and otherwise fills i,
// displacing its entry when the set is full.
func (a *Assoc[V]) Put(i int, key uint64, val V) (evKey uint64, evVal V, evicted bool) {
	s := a.set(key)
	n := int(a.occ[s])
	if i < s*a.ways+n && a.keys[i] == key {
		a.vals[i] = val
		a.stamp[i] = a.tick()
		a.mru, a.mruWay, a.mruOK = key, i, true
		return 0, evVal, false
	}
	a.stats.Insertions++
	a.mruOK = false
	if n < a.ways {
		a.occ[s]++
		a.n++
	} else {
		evKey, evVal, evicted = a.keys[i], a.vals[i], true
		a.stats.Evictions++
	}
	a.keys[i], a.vals[i] = key, val
	a.stamp[i] = a.tick()
	return evKey, evVal, evicted
}

// Invalidate removes key, reporting whether it was present; the last valid
// way swaps into the hole, keeping the prefix contiguous.
func (a *Assoc[V]) Invalidate(key uint64) bool {
	s := a.set(key)
	base := s * a.ways
	n := int(a.occ[s])
	for i := 0; i < n; i++ {
		if a.keys[base+i] == key {
			a.keys[base+i] = a.keys[base+n-1]
			a.vals[base+i] = a.vals[base+n-1]
			a.stamp[base+i] = a.stamp[base+n-1]
			var zero V
			a.vals[base+n-1] = zero // drop references held by the stale copy
			a.occ[s]--
			a.n--
			a.mruOK = false
			return true
		}
	}
	return false
}

// Len returns the number of valid entries.
func (a *Assoc[V]) Len() int { return a.n }
