package airbtb

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

// refAirBTB is AirBTB as it was before its bundles moved into the
// L1-I's slots: bundles in a Go map keyed by block, filled and evicted by
// separate hooks, answering Lookup and then training in Resolve, with a
// private linear-scan stamp-LRU overflow buffer that a bundle's eviction
// sweeps whole for the block's entries. TestMatchesBundleMapReference
// holds AirBTB to it.
type refAirBTB struct {
	cfg     Config
	bundles map[isa.Addr]refBundle

	cap   int
	pcs   []isa.Addr
	ents  []Entry
	stamp []uint64
	clock uint64

	fills, evictions, inserts, missed uint64
}

// refBundle is one block's bundle: its bitmap and its first
// EntriesPerBundle branch entries.
type refBundle struct {
	Bitmap  uint16
	N       uint8
	Entries [maxEntries]Entry
}

func newRef(cfg Config) *refAirBTB {
	return &refAirBTB{cfg: cfg, bundles: map[isa.Addr]refBundle{}, cap: cfg.OverflowEntries}
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

func (o *refAirBTB) Lookup(brPC isa.Addr) bool {
	b, ok := o.bundles[isa.BlockOf(brPC)]
	if !ok {
		return false
	}
	off := uint8(isa.BlockIndex(brPC))
	if b.Bitmap&(1<<off) == 0 {
		return false
	}
	for i := uint8(0); i < b.N; i++ {
		if b.Entries[i].Offset == off {
			return true
		}
	}
	if _, ok := o.lookupOverflow(brPC); ok {
		return true
	}
	o.missed++
	return false
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

func (o *refAirBTB) dropOverflowed(block isa.Addr, b refBundle) {
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
	var b refBundle
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

// TestMatchesBundleMapReference drives AirBTB, bound to a real L1-I, and
// the bundle-map reference through the same random sequence of fills
// (each L1-I eviction becoming the reference's BlockEvicted), demand
// touches that reorder the L1-I's LRU, and predictions of executed
// branches (the reference's Lookup then Resolve), over blocks with more
// branches than a bundle holds, for 2, 3 and 4 entries per bundle, with
// and without an overflow buffer. After every operation the verdicts, the
// counters, bundle residency and contents, and the overflow buffer (as a
// set, stamps included) agree.
func TestMatchesBundleMapReference(t *testing.T) {
	for _, entries := range []int{2, 3, 4} {
		for _, over := range []int{0, 1, 4, 32} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("B:%d OB:%d seed %d", entries, over, seed)
				rng := rand.New(rand.NewPCG(seed, uint64(over*8+entries)))
				// A 16-block L1-I (4 sets of 4 ways) under a pool of 40
				// blocks: fills keep evicting.
				cfg := Config{Bundles: 16, EntriesPerBundle: entries, OverflowEntries: over}
				a, l1 := newBound(cfg)
				ref := newRef(cfg)

				// Each block has a fixed static branch set of up to 9
				// branches in offset order, as predecode reports them.
				blocks := make([]isa.Addr, 40)
				brs := make([][]isa.PredecodedBranch, len(blocks))
				kinds := []isa.BranchKind{isa.BrCond, isa.BrUncond, isa.BrCall, isa.BrRet, isa.BrIndirect, isa.BrIndCall}
				for i := range blocks {
					blocks[i] = isa.Addr(0x10000 + i*isa.BlockBytes)
					for _, off := range rng.Perm(isa.InstrPerBlock)[:rng.IntN(10)] {
						brs[i] = append(brs[i], isa.PredecodedBranch{
							Offset: uint8(off), Kind: kinds[rng.IntN(len(kinds))], Target: isa.Addr(0x80000 + rng.IntN(1<<12)*4),
						})
					}
					slices.SortFunc(brs[i], func(x, y isa.PredecodedBranch) int { return int(x.Offset) - int(y.Offset) })
				}
				for step := 0; step < 2000; step++ {
					i := rng.IntN(len(blocks))
					block := blocks[i]
					key := uint64(block) >> isa.BlockShift
					switch op := rng.IntN(10); {
					case op < 3:
						slot, evicted, was := l1.InsertSlot(key)
						a.BlockFilled(0, slot, block, brs[i], false)
						if was {
							ref.BlockEvicted(isa.Addr(evicted << isa.BlockShift))
						}
						ref.BlockFilled(block, brs[i])
					case op < 5:
						l1.Lookup(key)
					default:
						if len(brs[i]) == 0 {
							continue
						}
						pb := brs[i][rng.IntN(len(brs[i]))]
						br := trace.BranchInfo{PC: pb.PC(block), Kind: pb.Kind, Taken: rng.IntN(4) > 0, Target: isa.Addr(0x90000 + rng.IntN(64)*4)}
						var got bool
						if op < 8 {
							got, _ = a.Predict(0, block, 1, br)
						} else {
							// The frontend's path: the slot found beforehand.
							slot, ok := l1.Find(key)
							got = a.PredictSlot(slot, ok, br)
						}
						want := ref.Lookup(br.PC)
						ref.Resolve(br)
						if got != want {
							t.Fatalf("%s step %d: predict(%#x) = %v, reference %v", name, step, br.PC, got, want)
						}
					}
					st := a.ExportState()
					if g, w := overflowSet(st.OverflowPCs, st.OverflowEnts, st.OverflowStamp, st.OverflowClock), overflowSet(ref.pcs, ref.ents, ref.stamp, ref.clock); g != w {
						t.Fatalf("%s step %d: overflow\n%s\nreference\n%s", name, step, g, w)
					}
					if a.Fills != ref.fills || a.Evictions != ref.evictions || a.OverflowInserts != ref.inserts || a.OverflowMissedSlots != ref.missed {
						t.Fatalf("%s step %d: counters diverged", name, step)
					}
					if a.Resident() != len(ref.bundles) {
						t.Fatalf("%s step %d: %d bundles resident, reference %d", name, step, a.Resident(), len(ref.bundles))
					}
					for j, bl := range blocks {
						w, ok := ref.bundles[bl]
						slot, resident := l1.Find(uint64(bl) >> isa.BlockShift)
						if resident != ok || a.HasBundle(bl) != ok {
							t.Fatalf("%s step %d: block %d residency diverged", name, step, j)
						}
						if !ok {
							continue
						}
						var held uint32
						for _, e := range w.Entries[:w.N] {
							held |= 1 << e.Offset
						}
						if m := a.mask[slot]; m != uint32(w.Bitmap)|held<<16 {
							t.Fatalf("%s step %d: block %d mask %#x, reference bitmap %#x holding %#x", name, step, j, m, w.Bitmap, held)
						}
					}
				}
			}
		}
	}
}
