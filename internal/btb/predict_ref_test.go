package btb

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

// refConventional is Conventional's prediction as two calls, Lookup then
// Resolve, each probing the main store itself: the form Predict fuses.
func refConventional(c *Conventional, bb isa.Addr, nInstr int, br trace.BranchInfo) bool {
	// Lookup.
	k := c.key(bb, br.PC)
	hit := false
	if _, ok := c.main.Lookup(k); ok {
		hit = true
	} else if c.victim != nil {
		if e, ok := c.victim.Take(k); ok {
			c.insert(k, e) // promote
			hit = true
		}
	}
	// Resolve.
	if br.Kind.IsBranch() && br.Taken {
		c.insert(c.key(bb, br.PC), Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)})
	}
	return hit
}

// refTwoLevel is TwoLevel's prediction as Lookup then Resolve.
func refTwoLevel(t *TwoLevel, bb isa.Addr, nInstr int, br trace.BranchInfo) (bool, float64) {
	k := uint64(bb) >> 2
	hit, bubble := true, 0.0
	if _, ok := t.l1.Lookup(k); !ok {
		if e, ok := t.l2.Lookup(k); ok {
			t.L2Hits++
			t.promote(k, e)
			bubble = t.l2Bubble
		} else {
			t.L2Misses++
			hit = false
		}
	}
	if br.Kind.IsBranch() && br.Taken {
		e := Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)}
		t.promote(k, e)
		t.l2.Insert(k, e)
	}
	return hit, bubble
}

// randomBlocks returns a stream generator over a pool of basic blocks
// larger than the small test BTBs hold, so hits, misses, victim-buffer
// promotions, evictions and MRU repeats all occur.
func randomBlocks(seed uint64) func() (isa.Addr, int, trace.BranchInfo) {
	rng := rand.New(rand.NewPCG(seed, 7))
	kinds := []isa.BranchKind{isa.BrCond, isa.BrUncond, isa.BrCall, isa.BrRet, isa.BrIndirect, isa.BrIndCall}
	var last isa.Addr
	return func() (isa.Addr, int, trace.BranchInfo) {
		bb := isa.Addr(0x10000 + rng.IntN(96)*24)
		if rng.IntN(4) == 0 {
			bb = last // a repeat hits the MRU fast path
		}
		last = bb
		n := 1 + rng.IntN(15)
		br := trace.BranchInfo{
			PC: bb + isa.Addr(n-1)*isa.InstrBytes, Kind: kinds[rng.IntN(len(kinds))],
			Taken: rng.IntN(3) > 0, Target: isa.Addr(0x80000 + rng.IntN(1<<10)*4),
		}
		return bb, n, br
	}
}

// TestPredictMatchesLookupResolve holds each fused Predict to the
// Lookup-then-Resolve pair it replaced, on twin instances driven through
// the same random stream (with eager fills interleaved for the eager
// variant): every verdict, bubble, the exported state (stamps and clocks
// included) and the access counters agree after every call.
func TestPredictMatchesLookupResolve(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tc := range []struct {
			name string
			mk   func() *Conventional
		}{
			{"plain", func() *Conventional { return NewConventional("c", 8, 2, 4) }},
			{"plain-novictim", func() *Conventional { return NewConventional("c", 8, 2, 0) }},
			{"eager", func() *Conventional { return NewEager("e", 8, 3, 4) }},
		} {
			got, want := tc.mk(), tc.mk()
			next := randomBlocks(seed)
			rng := rand.New(rand.NewPCG(seed, 11))
			for step := 0; step < 4000; step++ {
				if got.eager && rng.IntN(8) == 0 {
					block := isa.Addr(0x10000 + rng.IntN(64)*isa.BlockBytes)
					brs := []isa.PredecodedBranch{{Offset: uint8(rng.IntN(8)), Kind: isa.BrCond, Target: 0x9000}}
					got.BlockFilled(0, 0, block, brs, true)
					want.BlockFilled(0, 0, block, brs, true)
				}
				bb, n, br := next()
				g, _ := got.Predict(0, bb, n, br)
				w := refConventional(want, bb, n, br)
				if g != w {
					t.Fatalf("%s seed %d step %d: Predict hit %v, Lookup+Resolve %v", tc.name, seed, step, g, w)
				}
				if !reflect.DeepEqual(got.ExportState(), want.ExportState()) || got.main.Stats() != want.main.Stats() {
					t.Fatalf("%s seed %d step %d: state diverged", tc.name, seed, step)
				}
			}
		}

		got, want := NewTwoLevel("2", 2, 2, 8, 4, 3), NewTwoLevel("2", 2, 2, 8, 4, 3)
		next := randomBlocks(seed)
		for step := 0; step < 4000; step++ {
			bb, n, br := next()
			gh, gb := got.Predict(0, bb, n, br)
			wh, wb := refTwoLevel(want, bb, n, br)
			if gh != wh || gb != wb {
				t.Fatalf("two-level seed %d step %d: Predict (%v, %v), Lookup+Resolve (%v, %v)", seed, step, gh, gb, wh, wb)
			}
			if !reflect.DeepEqual(got.ExportState(), want.ExportState()) || got.L2Hits != want.L2Hits || got.L2Misses != want.L2Misses {
				t.Fatalf("two-level seed %d step %d: state diverged", seed, step)
			}
		}
	}
}
