package cache

import "confluence/internal/flatmap"

// Victim is a small fully-associative LRU buffer, used as the 64-entry
// victim buffer backing the baseline conventional BTB, as PhantomBTB's
// prefetch buffer and as AirBTB's overflow buffer. It is generic over the
// stored value so entries live inline — putting a value never boxes it
// into an interface, which kept an allocation on the BTB-eviction path
// when values were `any`.
//
// Entries sit unordered in parallel keys/vals/stamp arrays (removal swaps
// the last entry into the hole). Recency is a strictly increasing
// use-stamp, and the eviction victim is the minimum stamp: the same true
// LRU policy as an ordered list, since stamps are unique. Two structures
// over the slots make every operation O(1), with no scan of the buffer:
//
//   - a key→slot index, a flatmap.Map presized for three times the
//     capacity, so it never grows and stays about a quarter full;
//   - a doubly-linked recency list, most recently stamped first, so the
//     list's tail is always the entry with the minimum stamp.
//
// Both are allocated once at construction; no operation allocates. They
// are derived from the arrays (RestoreState rebuilds them from a
// snapshot's keys and stamps), so snapshots carry only the arrays.
type Victim[V any] struct {
	cap   int
	keys  []uint64
	vals  []V
	stamp []uint64
	clock uint64

	idx *flatmap.Map[int32] // key → slot

	// prev and next link the occupied slots, head the most recently
	// stamped and tail the least; noSlot ends the list.
	prev, next []int32
	head, tail int32
}

const noSlot = -1

// NewVictim creates a victim buffer holding up to capacity entries.
func NewVictim[V any](capacity int) *Victim[V] {
	if capacity <= 0 {
		panic("cache: victim capacity must be positive")
	}
	return &Victim[V]{
		cap:   capacity,
		keys:  make([]uint64, 0, capacity),
		vals:  make([]V, 0, capacity),
		stamp: make([]uint64, 0, capacity),
		idx:   flatmap.New[int32](3 * capacity),
		prev:  make([]int32, capacity),
		next:  make([]int32, capacity),
		head:  noSlot,
		tail:  noSlot,
	}
}

// Capacity returns the configured capacity; Len the current occupancy.
func (v *Victim[V]) Capacity() int { return v.cap }
func (v *Victim[V]) Len() int      { return len(v.keys) }

func (v *Victim[V]) tick() uint64 {
	v.clock++
	return v.clock
}

func (v *Victim[V]) unlink(s int32) {
	p, n := v.prev[s], v.next[s]
	if p == noSlot {
		v.head = n
	} else {
		v.next[p] = n
	}
	if n == noSlot {
		v.tail = p
	} else {
		v.prev[n] = p
	}
}

func (v *Victim[V]) pushFront(s int32) {
	v.prev[s], v.next[s] = noSlot, v.head
	if v.head == noSlot {
		v.tail = s
	} else {
		v.prev[v.head] = s
	}
	v.head = s
}

// touch stamps slot s as the most recently used.
func (v *Victim[V]) touch(s int32) {
	v.stamp[s] = v.tick()
	if v.head != s {
		v.unlink(s)
		v.pushFront(s)
	}
}

// removeAt drops the entry at slot s, moving the last entry into the
// hole (order is not meaningful).
func (v *Victim[V]) removeAt(s int32) {
	v.idx.Delete(v.keys[s])
	v.unlink(s)
	last := int32(len(v.keys) - 1)
	if s != last {
		v.keys[s], v.vals[s], v.stamp[s] = v.keys[last], v.vals[last], v.stamp[last]
		p, n := v.prev[last], v.next[last]
		v.prev[s], v.next[s] = p, n
		if p == noSlot {
			v.head = s
		} else {
			v.next[p] = s
		}
		if n == noSlot {
			v.tail = s
		} else {
			v.prev[n] = s
		}
		*v.idx.Ptr(v.keys[s]) = s
	}
	var zero V
	v.vals[last] = zero
	v.keys = v.keys[:last]
	v.vals = v.vals[:last]
	v.stamp = v.stamp[:last]
}

// Take returns the value for key and removes it (entries migrate back to
// the main structure on hit, the usual victim-buffer contract).
func (v *Victim[V]) Take(key uint64) (V, bool) {
	s, ok := v.idx.Get(key)
	if !ok {
		var zero V
		return zero, false
	}
	val := v.vals[s]
	v.removeAt(s)
	return val, true
}

// Peek returns the value for key without removing it, refreshing recency.
func (v *Victim[V]) Peek(key uint64) (V, bool) {
	s, ok := v.idx.Get(key)
	if !ok {
		var zero V
		return zero, false
	}
	v.touch(s)
	return v.vals[s], true
}

// Put inserts (key, val) at MRU, evicting the LRU entry when full. A present
// key is refreshed/overwritten.
func (v *Victim[V]) Put(key uint64, val V) {
	p, ok := v.idx.Upsert(key)
	if ok {
		v.vals[*p] = val
		v.touch(*p)
		return
	}
	s := int32(len(v.keys))
	if int(s) < v.cap {
		*p = s
		v.keys = append(v.keys, key)
		v.vals = append(v.vals, val)
		v.stamp = append(v.stamp, v.tick())
	} else {
		// The LRU entry's slot takes the new entry in place. The index
		// has room for one key beyond capacity, so the new key goes in
		// before the evicted one leaves.
		s = v.tail
		*p = s
		v.idx.Delete(v.keys[s])
		v.unlink(s)
		v.keys[s], v.vals[s], v.stamp[s] = key, val, v.tick()
	}
	v.pushFront(s)
}

// Remove drops key if present.
func (v *Victim[V]) Remove(key uint64) bool {
	s, ok := v.idx.Get(key)
	if !ok {
		return false
	}
	v.removeAt(s)
	return true
}
