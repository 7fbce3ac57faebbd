package cache

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// refCache is Cache as it was before lookups split into Find and Access:
// Lookup and Insert each scan the set themselves, and the MRU shortcut
// remembers a key, not a slot.
type refCache struct {
	sets, ways int
	keys       []uint64
	stamp      []uint64
	occ        []uint16
	clock      uint64
	n          int
	mru        uint64
	mruOK      bool
	stats      Stats
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, keys: make([]uint64, sets*ways), stamp: make([]uint64, sets*ways), occ: make([]uint16, sets)}
}

func (c *refCache) tick() uint64 { c.clock++; return c.clock }

func (c *refCache) Lookup(key uint64) bool {
	if c.mruOK && key == c.mru {
		c.stats.Hits++
		return true
	}
	s := int(key) & (c.sets - 1)
	base := s * c.ways
	for i := 0; i < int(c.occ[s]); i++ {
		if c.keys[base+i] == key {
			c.stamp[base+i] = c.tick()
			c.mru, c.mruOK = key, true
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Insert(key uint64) (uint64, bool) {
	s := int(key) & (c.sets - 1)
	base := s * c.ways
	n := int(c.occ[s])
	victim, oldest := 0, ^uint64(0)
	for i := 0; i < n; i++ {
		if c.keys[base+i] == key {
			c.stamp[base+i] = c.tick()
			c.mru, c.mruOK = key, true
			return 0, false
		}
		if c.stamp[base+i] < oldest {
			oldest, victim = c.stamp[base+i], i
		}
	}
	c.stats.Insertions++
	c.mruOK = false
	var ev uint64
	was := false
	if n < c.ways {
		victim = n
		c.occ[s]++
		c.n++
	} else {
		ev, was = c.keys[base+victim], true
		c.stats.Evictions++
	}
	c.keys[base+victim] = key
	c.stamp[base+victim] = c.tick()
	return ev, was
}

func (c *refCache) Invalidate(key uint64) {
	s := int(key) & (c.sets - 1)
	base, n := s*c.ways, int(c.occ[s])
	for i := 0; i < n; i++ {
		if c.keys[base+i] == key {
			c.keys[base+i], c.stamp[base+i] = c.keys[base+n-1], c.stamp[base+n-1]
			c.occ[s]--
			c.n--
			c.mruOK = false
			return
		}
	}
}

func (c *refCache) state() CacheState {
	return CacheState{Sets: c.sets, Ways: c.ways, Keys: c.keys, Stamp: c.stamp, Occ: c.occ, Clock: c.clock, N: c.n}
}

// TestCacheSlotPathMatchesLookup: a Find whose Access comes later — after
// other blocks' fills or the block's own invalidation, with Holds
// re-checking the slot, the way the frontend reuses a fetched block's
// slot — and InsertSlot leave exactly
// the contents, stamps, clock and counters of Lookup and Insert in the
// pre-split implementation, and Find agrees with the reference on
// presence.
func TestCacheSlotPathMatchesLookup(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 9))
		got, want := New(4, 3), newRefCache(4, 3)
		for step := 0; step < 20000; step++ {
			key := uint64(rng.IntN(24))
			switch rng.IntN(3) {
			case 0:
				slot, _, _ := got.InsertSlot(key)
				want.Insert(key)
				if !got.Holds(slot, key) {
					t.Fatalf("seed %d step %d: InsertSlot's slot does not hold the key", seed, step)
				}
			case 1:
				// Find, then maybe another key's fill, then Access. Only
				// the key's own fill can make it resident in between, and
				// that fill would report its slot.
				slot, ok := got.Find(key)
				if ok != want.keysHave(key) {
					t.Fatalf("seed %d step %d: Find presence %v", seed, step, ok)
				}
				switch other := uint64(rng.IntN(24)); {
				case other != key && rng.IntN(2) == 0:
					got.Insert(other)
					want.Insert(other)
				case rng.IntN(4) == 0:
					// The key itself leaves: its slot, maybe now past the
					// set's valid ways, must not read as holding it.
					got.Invalidate(key)
					want.Invalidate(key)
				}
				got.Access(slot, ok && got.Holds(slot, key))
				want.Lookup(key)
			default:
				if got.Lookup(key) != want.Lookup(key) {
					t.Fatalf("seed %d step %d: Lookup verdicts differ", seed, step)
				}
			}
			if !reflect.DeepEqual(got.ExportState(), want.state()) || got.Stats() != want.stats {
				t.Fatalf("seed %d step %d: state diverged", seed, step)
			}
		}
	}
}

func (c *refCache) keysHave(key uint64) bool {
	s := int(key) & (c.sets - 1)
	for i := 0; i < int(c.occ[s]); i++ {
		if c.keys[s*c.ways+i] == key {
			return true
		}
	}
	return false
}

// refAssoc is Assoc's Lookup and Insert as they were before Probe and
// Put: each scans the set itself.
type refAssoc struct {
	sets, ways int
	keys       []uint64
	vals       []int
	stamp      []uint64
	occ        []uint16
	clock      uint64
	n          int
	mru        uint64
	mruWay     int
	mruOK      bool
	stats      Stats
}

func newRefAssoc(sets, ways int) *refAssoc {
	return &refAssoc{sets: sets, ways: ways, keys: make([]uint64, sets*ways), vals: make([]int, sets*ways),
		stamp: make([]uint64, sets*ways), occ: make([]uint16, sets)}
}

func (a *refAssoc) tick() uint64 { a.clock++; return a.clock }

func (a *refAssoc) Lookup(key uint64) (int, bool) {
	if a.mruOK && key == a.mru {
		a.stats.Hits++
		return a.vals[a.mruWay], true
	}
	s := int(key) & (a.sets - 1)
	base := s * a.ways
	for i := 0; i < int(a.occ[s]); i++ {
		if a.keys[base+i] == key {
			a.stamp[base+i] = a.tick()
			a.mru, a.mruWay, a.mruOK = key, base+i, true
			a.stats.Hits++
			return a.vals[base+i], true
		}
	}
	a.stats.Misses++
	return 0, false
}

func (a *refAssoc) Insert(key uint64, val int) (uint64, int, bool) {
	s := int(key) & (a.sets - 1)
	base := s * a.ways
	n := int(a.occ[s])
	victim, oldest := 0, ^uint64(0)
	for i := 0; i < n; i++ {
		if a.keys[base+i] == key {
			a.vals[base+i] = val
			a.stamp[base+i] = a.tick()
			a.mru, a.mruWay, a.mruOK = key, base+i, true
			return 0, 0, false
		}
		if a.stamp[base+i] < oldest {
			oldest, victim = a.stamp[base+i], i
		}
	}
	a.stats.Insertions++
	a.mruOK = false
	var evKey uint64
	var evVal int
	evicted := false
	if n < a.ways {
		victim = n
		a.occ[s]++
		a.n++
	} else {
		evKey, evVal, evicted = a.keys[base+victim], a.vals[base+victim], true
		a.stats.Evictions++
	}
	a.keys[base+victim], a.vals[base+victim] = key, val
	a.stamp[base+victim] = a.tick()
	return evKey, evVal, evicted
}

// TestAssocProbePutMatchesLookupInsert: Probe then Put at its index —
// once or twice, as a promotion followed by a taken-branch update does —
// leaves exactly the values, stamps, clock, counters and evictions of
// Lookup then Insert in the pre-Probe implementation.
func TestAssocProbePutMatchesLookupInsert(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		got, want := NewAssoc[int](4, 3), newRefAssoc(4, 3)
		for step := 0; step < 20000; step++ {
			key := uint64(rng.IntN(24))
			switch rng.IntN(3) {
			case 0:
				gk, gv, ge := got.Insert(key, step)
				wk, wv, we := want.Insert(key, step)
				if gk != wk || gv != wv || ge != we {
					t.Fatalf("seed %d step %d: Insert evictions differ", seed, step)
				}
			case 1:
				i, hit := got.Probe(key)
				_, whit := want.Lookup(key)
				if hit != whit {
					t.Fatalf("seed %d step %d: Probe hit %v, Lookup %v", seed, step, hit, whit)
				}
				for n := rng.IntN(3); n > 0; n-- {
					gk, gv, ge := got.Put(i, key, step+n)
					wk, wv, we := want.Insert(key, step+n)
					if gk != wk || gv != wv || ge != we {
						t.Fatalf("seed %d step %d: Put evictions differ", seed, step)
					}
				}
			default:
				gv, gok := got.Lookup(key)
				wv, wok := want.Lookup(key)
				if gv != wv || gok != wok {
					t.Fatalf("seed %d step %d: Lookup differs", seed, step)
				}
			}
			st, vals := got.ExportState()
			if !reflect.DeepEqual(st, AssocState{Sets: 4, Ways: 3, Keys: want.keys, Stamp: want.stamp, Occ: want.occ, Clock: want.clock, N: want.n}) ||
				!reflect.DeepEqual(vals, want.vals) || got.Stats() != want.stats {
				t.Fatalf("seed %d step %d: state diverged", seed, step)
			}
		}
	}
}
