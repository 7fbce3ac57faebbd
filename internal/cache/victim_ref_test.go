package cache

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// refVictim is the linear-scan stamp-LRU buffer Victim replaced: every
// operation scans the whole buffer, and Put evicts the minimum stamp.
// TestVictimMatchesLinearScan holds Victim to it.
type refVictim struct {
	cap   int
	keys  []uint64
	vals  []int
	stamp []uint64
	clock uint64
}

func (v *refVictim) tick() uint64 {
	v.clock++
	return v.clock
}

func (v *refVictim) removeAt(i int) {
	last := len(v.keys) - 1
	v.keys[i], v.vals[i], v.stamp[i] = v.keys[last], v.vals[last], v.stamp[last]
	v.keys, v.vals, v.stamp = v.keys[:last], v.vals[:last], v.stamp[:last]
}

func (v *refVictim) Take(key uint64) (int, bool) {
	for i, k := range v.keys {
		if k == key {
			val := v.vals[i]
			v.removeAt(i)
			return val, true
		}
	}
	return 0, false
}

func (v *refVictim) Peek(key uint64) (int, bool) {
	for i, k := range v.keys {
		if k == key {
			v.stamp[i] = v.tick()
			return v.vals[i], true
		}
	}
	return 0, false
}

func (v *refVictim) Put(key uint64, val int) {
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i, k := range v.keys {
		if k == key {
			v.vals[i] = val
			v.stamp[i] = v.tick()
			return
		}
		if v.stamp[i] < oldest {
			oldest, victim = v.stamp[i], i
		}
	}
	if len(v.keys) < v.cap {
		v.keys = append(v.keys, key)
		v.vals = append(v.vals, val)
		v.stamp = append(v.stamp, v.tick())
		return
	}
	v.keys[victim], v.vals[victim], v.stamp[victim] = key, val, v.tick()
}

func (v *refVictim) Remove(key uint64) bool {
	for i, k := range v.keys {
		if k == key {
			v.removeAt(i)
			return true
		}
	}
	return false
}

func (v *refVictim) export() (VictimState, []int) {
	return VictimState{
		Cap:   v.cap,
		Keys:  append([]uint64(nil), v.keys...),
		Stamp: append([]uint64(nil), v.stamp...),
		Clock: v.clock,
	}, append([]int(nil), v.vals...)
}

// TestVictimMatchesLinearScan runs random operation sequences against
// Victim and the linear-scan reference: every returned value and every
// exported state (array layout included) must agree at every step, also
// across snapshot round trips into fresh buffers.
func TestVictimMatchesLinearScan(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 32, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
			v := NewVictim[int](capacity)
			ref := &refVictim{cap: capacity}
			// A key space a little wider than the buffer mixes hits,
			// misses and evictions.
			space := uint64(capacity + capacity/2 + 2)
			for step := 0; step < 4000; step++ {
				key := rng.Uint64N(space) * 0x9e3779b97f4a7c15 // spread over the index
				switch op := rng.IntN(10); {
				case op < 4:
					val := rng.Int()
					v.Put(key, val)
					ref.Put(key, val)
				case op < 6:
					g, gok := v.Take(key)
					w, wok := ref.Take(key)
					if g != w || gok != wok {
						t.Fatalf("cap %d seed %d step %d: Take = %d,%v, reference %d,%v", capacity, seed, step, g, gok, w, wok)
					}
				case op < 8:
					g, gok := v.Peek(key)
					w, wok := ref.Peek(key)
					if g != w || gok != wok {
						t.Fatalf("cap %d seed %d step %d: Peek = %d,%v, reference %d,%v", capacity, seed, step, g, gok, w, wok)
					}
				case op < 9:
					if g, w := v.Remove(key), ref.Remove(key); g != w {
						t.Fatalf("cap %d seed %d step %d: Remove = %v, reference %v", capacity, seed, step, g, w)
					}
				default:
					st, vals := v.ExportState()
					fresh := NewVictim[int](capacity)
					if err := fresh.RestoreState(st, vals); err != nil {
						t.Fatalf("cap %d seed %d step %d: restore: %v", capacity, seed, step, err)
					}
					v = fresh
				}
				gs, gv := v.ExportState()
				ws, wv := ref.export()
				if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gv, wv) {
					t.Fatalf("cap %d seed %d step %d: state %+v %v, reference %+v %v", capacity, seed, step, gs, gv, ws, wv)
				}
			}
		}
	}
}

// TestVictimRestoreRejectsInconsistentState: the index and the recency
// list assume what every live buffer guarantees — unique keys, unique
// stamps, none past the clock — so a snapshot breaking that must fail
// restore and leave the buffer untouched.
func TestVictimRestoreRejectsInconsistentState(t *testing.T) {
	live := NewVictim[int](4)
	live.Put(10, 1)
	live.Put(20, 2)
	live.Put(30, 3)
	good, vals := live.ExportState()
	for _, tc := range []struct {
		name, want string
		edit       func(*VictimState)
	}{
		{"duplicate key", "repeats key", func(st *VictimState) { st.Keys[2] = st.Keys[0] }},
		{"duplicate stamp", "repeats stamp", func(st *VictimState) { st.Stamp[1] = st.Stamp[0] }},
		{"stamp past clock", "past clock", func(st *VictimState) { st.Clock = st.Stamp[2] - 1 }},
	} {
		st := good
		st.Keys = append([]uint64(nil), good.Keys...)
		st.Stamp = append([]uint64(nil), good.Stamp...)
		tc.edit(&st)
		v := NewVictim[int](4)
		v.Put(99, 9)
		before, beforeVals := v.ExportState()
		err := v.RestoreState(st, vals)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
		if after, afterVals := v.ExportState(); !reflect.DeepEqual(after, before) || !reflect.DeepEqual(afterVals, beforeVals) {
			t.Errorf("%s: a failed restore changed the buffer", tc.name)
		}
		if got, ok := v.Peek(99); !ok || got != 9 {
			t.Errorf("%s: a failed restore lost the buffer's entry", tc.name)
		}
	}
}
