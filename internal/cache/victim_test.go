package cache

import "testing"

func TestVictimPutTake(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(2, "b")
	got, ok := v.Take(1)
	if !ok || got != "a" {
		t.Fatalf("Take(1) = %v, %v", got, ok)
	}
	if _, ok := v.Take(1); ok {
		t.Error("Take must remove the entry")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestVictimLRUEviction(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(2, "b")
	v.Put(3, "c") // evicts 1 (LRU)
	if _, ok := v.Peek(1); ok {
		t.Error("LRU entry survived")
	}
	if _, ok := v.Peek(2); !ok {
		t.Error("entry 2 lost")
	}
}

func TestVictimPeekRefreshes(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(2, "b")
	v.Peek(1) // 1 becomes MRU
	v.Put(3, "c")
	if _, ok := v.Peek(1); !ok {
		t.Error("peeked entry evicted despite MRU refresh")
	}
	if _, ok := v.Peek(2); ok {
		t.Error("entry 2 should have been evicted")
	}
}

func TestVictimPutOverwrites(t *testing.T) {
	v := NewVictim[string](2)
	v.Put(1, "a")
	v.Put(1, "b")
	if v.Len() != 1 {
		t.Errorf("duplicate Put grew buffer: %d", v.Len())
	}
	if got, _ := v.Peek(1); got != "b" {
		t.Errorf("overwrite failed: %v", got)
	}
}

func TestVictimRemove(t *testing.T) {
	v := NewVictim[string](4)
	v.Put(1, "a")
	if !v.Remove(1) || v.Remove(1) {
		t.Error("Remove semantics wrong")
	}
}

func TestVictimCapacityOne(t *testing.T) {
	v := NewVictim[string](1)
	v.Put(1, "a")
	v.Put(2, "b")
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
	if _, ok := v.Peek(2); !ok {
		t.Error("newest entry missing")
	}
}

func TestInFlight(t *testing.T) {
	f := NewInFlight()
	f.Add(1, 100)
	f.Add(2, 50)
	f.Add(1, 200) // later time must not override earlier
	if r, ok := f.Ready(1); !ok || r != 100 {
		t.Errorf("Ready(1) = %v, %v", r, ok)
	}
	f.Add(2, 25) // earlier time wins
	if r, _ := f.Ready(2); r != 25 {
		t.Errorf("Ready(2) = %v, want 25", r)
	}
	f.Remove(1)
	if _, ok := f.Ready(1); ok {
		t.Error("removed key still in flight")
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestInFlightExpire(t *testing.T) {
	f := NewInFlight()
	f.Add(1, 10)
	f.Add(2, 20)
	f.Add(3, 30)
	var expired []uint64
	f.Expire(20, func(k uint64) { expired = append(expired, k) })
	if len(expired) != 2 {
		t.Errorf("expired %v, want keys 1 and 2", expired)
	}
	if _, ok := f.Ready(3); !ok {
		t.Error("unexpired key removed")
	}
}

var victimSink int

// BenchmarkVictimPut measures the BTB-eviction path: a Put into a full
// 64-entry buffer, evicting its least recently used entry.
func BenchmarkVictimPut(b *testing.B) {
	v := NewVictim[int](64)
	for i := 0; i < 64; i++ {
		v.Put(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Put(uint64(64+i), i)
	}
}

// BenchmarkVictimTake measures the BTB-miss probe of a full 64-entry
// buffer: half the probes hit (and are put back), half miss.
func BenchmarkVictimTake(b *testing.B) {
	v := NewVictim[int](64)
	for i := 0; i < 64; i++ {
		v.Put(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i) & 127
		if val, ok := v.Take(key); ok {
			victimSink += val
			v.Put(key, val)
		}
	}
}

// BenchmarkVictimTakeMiss measures the BTB-miss probe when the victim
// buffer does not hold the block either, the common case on a
// miss-heavy workload: every probe of a full 64-entry buffer misses.
func BenchmarkVictimTakeMiss(b *testing.B) {
	v := NewVictim[int](64)
	for i := 0; i < 64; i++ {
		v.Put(uint64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if val, ok := v.Take(uint64(64 + i&1023)); ok {
			victimSink += val
		}
	}
}
