package airbtb

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"confluence/internal/btb"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

// refAirBTB is AirBTB as it was before its overflow buffer became a
// cache.Victim: bundles in a Go map and a private linear-scan stamp-LRU
// overflow buffer that a bundle's eviction sweeps whole for the block's
// entries. TestOverflowMatchesBlockSweep holds AirBTB to it.
type refAirBTB struct {
	cfg     Config
	bundles map[isa.Addr]Bundle

	cap   int
	pcs   []isa.Addr
	ents  []Entry
	stamp []uint64
	clock uint64

	fills, evictions, inserts, missed uint64
}

func newRef(cfg Config) *refAirBTB {
	return &refAirBTB{cfg: cfg, bundles: map[isa.Addr]Bundle{}, cap: cfg.OverflowEntries}
}

func (o *refAirBTB) tick() uint64 {
	o.clock++
	return o.clock
}

func (o *refAirBTB) lookupOverflow(pc isa.Addr) (Entry, bool) {
	for i, p := range o.pcs {
		if p == pc {
			o.stamp[i] = o.tick()
			return o.ents[i], true
		}
	}
	return Entry{}, false
}

func (o *refAirBTB) insert(pc isa.Addr, e Entry) {
	if o.cap == 0 {
		return
	}
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i, p := range o.pcs {
		if p == pc {
			o.ents[i] = e
			o.stamp[i] = o.tick()
			return
		}
		if o.stamp[i] < oldest {
			oldest, victim = o.stamp[i], i
		}
	}
	if len(o.pcs) < o.cap {
		o.pcs = append(o.pcs, pc)
		o.ents = append(o.ents, e)
		o.stamp = append(o.stamp, o.tick())
		return
	}
	o.pcs[victim], o.ents[victim], o.stamp[victim] = pc, e, o.tick()
}

func (o *refAirBTB) removeBlock(block isa.Addr, over uint16) {
	for i := 0; i < len(o.pcs); {
		pc := o.pcs[i]
		if isa.BlockOf(pc) == block && over&(1<<isa.BlockIndex(pc)) != 0 {
			last := len(o.pcs) - 1
			o.pcs[i], o.ents[i], o.stamp[i] = o.pcs[last], o.ents[last], o.stamp[last]
			o.pcs, o.ents, o.stamp = o.pcs[:last], o.ents[:last], o.stamp[:last]
			continue
		}
		i++
	}
}

func (o *refAirBTB) Lookup(brPC isa.Addr) btb.Result {
	b, ok := o.bundles[isa.BlockOf(brPC)]
	if !ok {
		return btb.Result{}
	}
	off := uint8(isa.BlockIndex(brPC))
	if b.Bitmap&(1<<off) == 0 {
		return btb.Result{}
	}
	for i := uint8(0); i < b.N; i++ {
		if b.Entries[i].Offset == off {
			e := b.Entries[i]
			return btb.Result{Hit: true, Entry: btb.Entry{Kind: e.Kind, Target: e.Target}}
		}
	}
	if e, ok := o.lookupOverflow(brPC); ok {
		return btb.Result{Hit: true, Entry: btb.Entry{Kind: e.Kind, Target: e.Target}}
	}
	o.missed++
	return btb.Result{}
}

func (o *refAirBTB) Resolve(br trace.BranchInfo) {
	if !br.Taken || !br.Kind.IsBranch() {
		return
	}
	block := isa.BlockOf(br.PC)
	b, ok := o.bundles[block]
	if !ok {
		return
	}
	off := uint8(isa.BlockIndex(br.PC))
	for i := uint8(0); i < b.N; i++ {
		if b.Entries[i].Offset == off {
			if !br.Kind.IsDirect() {
				b.Entries[i].Target = br.Target
				o.bundles[block] = b
			}
			return
		}
	}
	if b.Bitmap&(1<<off) == 0 {
		return
	}
	o.insert(br.PC, Entry{Offset: off, Kind: br.Kind, Target: br.Target})
}

func (o *refAirBTB) dropOverflowed(block isa.Addr, b Bundle) {
	inBundle := uint16(0)
	for i := uint8(0); i < b.N; i++ {
		inBundle |= 1 << b.Entries[i].Offset
	}
	if over := b.Bitmap &^ inBundle; over != 0 {
		o.removeBlock(block, over)
	}
}

func (o *refAirBTB) BlockFilled(block isa.Addr, branches []isa.PredecodedBranch) {
	if old, ok := o.bundles[block]; ok {
		o.dropOverflowed(block, old)
	}
	var b Bundle
	for _, pb := range branches {
		b.Bitmap |= 1 << pb.Offset
		e := Entry{Offset: pb.Offset, Kind: pb.Kind, Target: pb.Target}
		if int(b.N) < o.cfg.EntriesPerBundle {
			b.Entries[b.N] = e
			b.N++
		} else {
			o.insert(pb.PC(block), e)
			o.inserts++
		}
	}
	o.bundles[block] = b
	o.fills++
}

func (o *refAirBTB) BlockEvicted(block isa.Addr) {
	b, ok := o.bundles[block]
	if !ok {
		return
	}
	o.dropOverflowed(block, b)
	delete(o.bundles, block)
	o.evictions++
}

// overflowSet renders an overflow buffer as its sorted (PC, entry,
// stamp) triples plus the clock: its contents with the slot order, the
// one thing the two implementations may disagree on, left out.
func overflowSet(pcs []isa.Addr, ents []Entry, stamp []uint64, clock uint64) string {
	rows := make([]string, len(pcs))
	for i := range pcs {
		rows[i] = fmt.Sprintf("%#x %+v %d", pcs[i], ents[i], stamp[i])
	}
	slices.Sort(rows)
	return fmt.Sprintf("%v clock %d", rows, clock)
}

// TestOverflowMatchesBlockSweep drives AirBTB and the block-sweep
// reference through the same random fills, evictions, lookups and
// resolves over blocks with more branches than a bundle holds: every
// lookup, every counter, bundle residency and the overflow contents (as
// a set, stamps included) must agree after every operation.
func TestOverflowMatchesBlockSweep(t *testing.T) {
	for _, over := range []int{0, 1, 4, 32} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(over)))
			cfg := Config{Bundles: 64, EntriesPerBundle: 2, OverflowEntries: over}
			a, ref := New(cfg), newRef(cfg)

			// A pool of blocks, each with a fixed static branch set of up
			// to 8 branches in offset order, as predecode reports them.
			blocks := make([]isa.Addr, 24)
			brs := make([][]isa.PredecodedBranch, len(blocks))
			kinds := []isa.BranchKind{isa.BrCond, isa.BrUncond, isa.BrCall, isa.BrRet, isa.BrIndirect, isa.BrIndCall}
			for i := range blocks {
				blocks[i] = isa.Addr(0x10000 + i*isa.BlockBytes)
				for _, off := range rng.Perm(isa.InstrPerBlock)[:rng.IntN(9)] {
					brs[i] = append(brs[i], isa.PredecodedBranch{
						Offset: uint8(off), Kind: kinds[rng.IntN(len(kinds))], Target: isa.Addr(0x80000 + rng.IntN(1<<12)*4),
					})
				}
				slices.SortFunc(brs[i], func(x, y isa.PredecodedBranch) int { return int(x.Offset) - int(y.Offset) })
			}
			for step := 0; step < 3000; step++ {
				i := rng.IntN(len(blocks))
				block := blocks[i]
				switch op := rng.IntN(10); {
				case op < 3:
					a.BlockFilled(0, block, brs[i], false)
					ref.BlockFilled(block, brs[i])
				case op < 5:
					a.BlockEvicted(block)
					ref.BlockEvicted(block)
				case op < 8:
					if len(brs[i]) == 0 {
						continue
					}
					pc := brs[i][rng.IntN(len(brs[i]))].PC(block)
					if g, w := a.Lookup(0, block, pc), ref.Lookup(pc); g != w {
						t.Fatalf("over %d seed %d step %d: Lookup(%#x) = %+v, reference %+v", over, seed, step, pc, g, w)
					}
				default:
					if len(brs[i]) == 0 {
						continue
					}
					pb := brs[i][rng.IntN(len(brs[i]))]
					br := trace.BranchInfo{PC: pb.PC(block), Kind: pb.Kind, Taken: rng.IntN(4) > 0, Target: isa.Addr(0x90000 + rng.IntN(64)*4)}
					a.Resolve(0, block, 1, br)
					ref.Resolve(br)
				}
				got, want := a.ExportState(), overflowSet(ref.pcs, ref.ents, ref.stamp, ref.clock)
				if g := overflowSet(got.OverflowPCs, got.OverflowEnts, got.OverflowStamp, got.OverflowClock); g != want {
					t.Fatalf("over %d seed %d step %d: overflow\n%s\nreference\n%s", over, seed, step, g, want)
				}
				if a.Fills != ref.fills || a.Evictions != ref.evictions || a.OverflowInserts != ref.inserts || a.OverflowMissedSlots != ref.missed {
					t.Fatalf("over %d seed %d step %d: counters diverged", over, seed, step)
				}
				if a.Resident() != len(ref.bundles) {
					t.Fatalf("over %d seed %d step %d: %d bundles resident, reference %d", over, seed, step, a.Resident(), len(ref.bundles))
				}
				for j, bl := range blocks {
					g := a.bundles.Ptr(uint64(bl))
					if w, ok := ref.bundles[bl]; (g != nil) != ok || ok && *g != w {
						t.Fatalf("over %d seed %d step %d: bundle %d diverged", over, seed, step, j)
					}
				}
			}
		}
	}
}
