package phantom

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"confluence/internal/btb"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

// refPhantom is PhantomBTB's prediction as the two calls it used to be,
// Lookup then Resolve, carrying "the last lookup missed" between them in
// a flag.
type refPhantom struct {
	p        *PhantomBTB
	missPend bool
}

func (r *refPhantom) Lookup(now float64, bb isa.Addr) bool {
	p := r.p
	p.drain(now)
	k := uint64(bb) >> 2
	if _, ok := p.l1.Lookup(k); ok {
		r.missPend = false
		return true
	}
	if e, ok := p.pfbuf.Take(k); ok {
		p.l1.Insert(k, e)
		r.missPend = false
		p.GroupHits++
		return true
	}
	r.missPend = true
	if g, ok := p.store.groups.Lookup(region(bb | p.asBase)); ok {
		p.pending = append(p.pending, pendingFill{ready: now + p.metaLatency, g: g})
		p.GroupFills++
	}
	return false
}

func (r *refPhantom) Resolve(bb isa.Addr, nInstr int, br trace.BranchInfo) {
	p := r.p
	if !br.Kind.IsBranch() || !br.Taken {
		r.missPend = false
		return
	}
	k := uint64(bb) >> 2
	e := btb.Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)}
	p.l1.Insert(k, e)
	if !r.missPend {
		return
	}
	r.missPend = false
	if !p.curValid {
		p.curValid = true
		p.curRegion = region(bb | p.asBase)
		p.cur = group{}
	}
	p.cur.entries[p.cur.n] = taggedEntry{key: k, e: e}
	p.cur.n++
	if p.cur.n == GroupEntries {
		p.store.groups.Insert(p.curRegion, p.cur)
		p.curValid = false
	}
}

// TestPredictMatchesLookupResolve drives two cores sharing a group store
// through Predict, and twin cores sharing a twin store through the
// Lookup-then-Resolve reference, over the same random stream: verdicts,
// each core's exported state, the store and the group counters agree
// after every call.
func TestPredictMatchesLookupResolve(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		gs, ws := NewStore(64), NewStore(64)
		got := []*PhantomBTB{New("a", 4, 2, 8, gs, 30), NewASID("b", 4, 2, 8, gs, 30, isa.ASIDBase(1))}
		want := []*refPhantom{{p: New("a", 4, 2, 8, ws, 30)}, {p: NewASID("b", 4, 2, 8, ws, 30, isa.ASIDBase(1))}}
		rng := rand.New(rand.NewPCG(seed, 3))
		kinds := []isa.BranchKind{isa.BrCond, isa.BrUncond, isa.BrCall, isa.BrRet, isa.BrIndirect}
		now := 0.0
		for step := 0; step < 2500; step++ {
			now += float64(rng.IntN(8))
			c := rng.IntN(2)
			bb := isa.Addr(0x8000 + rng.IntN(160)*12)
			n := 1 + rng.IntN(15)
			br := trace.BranchInfo{PC: bb + isa.Addr(n-1)*isa.InstrBytes, Kind: kinds[rng.IntN(len(kinds))], Taken: rng.IntN(3) > 0, Target: 0x40000}
			g, _ := got[c].Predict(now, bb, n, br)
			w := want[c].Lookup(now, bb)
			want[c].Resolve(bb, n, br)
			if g != w {
				t.Fatalf("seed %d step %d: Predict hit %v, Lookup+Resolve %v", seed, step, g, w)
			}
			for i := range got {
				gp, wp := got[i], want[i].p
				if !reflect.DeepEqual(gp.ExportState(), wp.ExportState()) || gp.GroupFills != wp.GroupFills || gp.GroupHits != wp.GroupHits {
					t.Fatalf("seed %d step %d: core %d state diverged", seed, step, i)
				}
			}
			if !reflect.DeepEqual(gs.ExportState(), ws.ExportState()) {
				t.Fatalf("seed %d step %d: group store diverged", seed, step)
			}
		}
	}
}
