// Package airbtb implements AirBTB, the paper's block-based BTB whose
// contents mirror the L1-I (§3.1–3.3).
//
// AirBTB keeps one bundle per L1-I-resident instruction block. A bundle is
// tagged by the block address (amortizing the tag over all branches in the
// block), carries a 16-bit branch bitmap marking which instruction slots
// hold branches, and stores a fixed number of branch entries (offset, type,
// target). Branches that do not fit overflow into a small fully-associative
// overflow buffer. Insertions and evictions are driven by L1-I fills and
// evictions — Confluence's synchronization — so the bundle store never
// conflicts between two L1-I-resident blocks.
package airbtb

import (
	"confluence/internal/btb"
	"confluence/internal/flatmap"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

// Entry is one branch record inside a bundle.
type Entry struct {
	Target isa.Addr
	Offset uint8 // instruction slot within the block
	Kind   isa.BranchKind
}

// Bundle holds the BTB state of one instruction block.
type Bundle struct {
	Bitmap  uint16 // branch positions in the block (all branches, incl. overflowed)
	N       uint8  // entries used
	Entries [4]Entry
}

// Config sizes AirBTB. The paper's final design: 512 bundles (as many as
// L1-I blocks), 3 entries per bundle, a 32-entry overflow buffer.
type Config struct {
	Bundles          int // must equal the L1-I block count for strict sync
	EntriesPerBundle int // 3 or 4
	OverflowEntries  int // 0 disables the overflow buffer
}

// DefaultConfig returns the paper's final configuration (B:3, OB:32).
func DefaultConfig() Config {
	return Config{Bundles: 512, EntriesPerBundle: 3, OverflowEntries: 32}
}

// StorageBits returns the SRAM cost of the configuration, following the
// paper's accounting: per bundle a block-address tag (42 bits for 48-bit VA,
// 64B blocks), a 16-bit bitmap, and per entry 4-bit offset + 2-bit type +
// 30-bit target; overflow entries carry a full 46-bit PC tag plus type and
// target.
func (c Config) StorageBits() int {
	perEntry := 4 + 2 + 30
	perBundle := 42 + 16 + c.EntriesPerBundle*perEntry
	perOverflow := 46 + 2 + 30
	return c.Bundles*perBundle + c.OverflowEntries*perOverflow
}

// AirBTB is one core's instance. Its content is maintained exclusively via
// BlockFilled/BlockEvicted, which Confluence drives from L1-I fills.
//
// Bundles live inline in an open-addressed table keyed by block address,
// sized once to the configured bundle count (L1-I synchronization bounds
// residency at cfg.Bundles): fills store a bundle by value and evictions
// use backward-shift deletion, so no per-fill allocation and no Go-map
// hashing on the lookup path.
type AirBTB struct {
	cfg      Config
	bundles  *flatmap.Map[Bundle]
	overflow *overflowBuffer

	// Stats.
	Fills, Evictions    uint64
	OverflowInserts     uint64
	OverflowMissedSlots uint64 // branch marked in bitmap but entry lost
}

// New creates an AirBTB.
func New(cfg Config) *AirBTB {
	if cfg.EntriesPerBundle < 1 || cfg.EntriesPerBundle > len(Bundle{}.Entries) {
		panic("airbtb: entries per bundle out of range")
	}
	return &AirBTB{
		cfg:      cfg,
		bundles:  flatmap.New[Bundle](cfg.Bundles),
		overflow: newOverflowBuffer(cfg.OverflowEntries),
	}
}

// Name implements the frontend BTB interface.
func (a *AirBTB) Name() string { return "AirBTB" }

// Config returns the instance configuration.
func (a *AirBTB) Config() Config { return a.cfg }

// Resident returns the number of bundles currently installed.
func (a *AirBTB) Resident() int { return a.bundles.Len() }

// HasBundle reports whether a bundle exists for the given block address
// (used by the L1-I/AirBTB synchronization invariant checks).
func (a *AirBTB) HasBundle(block isa.Addr) bool {
	return a.bundles.Contains(uint64(block))
}

// Lookup implements the frontend BTB interface: the prediction for the
// basic block starting at bb succeeds when the bundle for the branch's
// block is present and the branch's entry is reachable (bundle or overflow
// buffer). A missing bundle or a lost overflowed entry is a miss, in which
// case the BPU falls back to a speculative sequential fetch region (§3.3).
func (a *AirBTB) Lookup(now float64, bb, brPC isa.Addr) btb.Result {
	block := isa.BlockOf(brPC)
	b := a.bundles.Ptr(uint64(block))
	if b == nil {
		return btb.Result{}
	}
	off := uint8(isa.BlockIndex(brPC))
	if b.Bitmap&(1<<off) == 0 {
		// Bitmap says "no branch here": sync guarantees bitmaps reflect the
		// block's true static branches, so this cannot happen for executed
		// branches; treat defensively as a miss.
		return btb.Result{}
	}
	for i := uint8(0); i < b.N; i++ {
		if b.Entries[i].Offset == off {
			e := b.Entries[i]
			return btb.Result{Hit: true, Entry: btb.Entry{Kind: e.Kind, Target: e.Target}}
		}
	}
	if e, ok := a.overflow.lookup(brPC); ok {
		return btb.Result{Hit: true, Entry: btb.Entry{Kind: e.Kind, Target: e.Target}}
	}
	a.OverflowMissedSlots++
	return btb.Result{}
}

// Resolve implements the frontend BTB interface. AirBTB allocates bundles
// only in sync with L1-I fills, but resolved branches keep the structure
// warm in two ways: indirect targets refresh the stored target field, and a
// taken branch whose entry was lost from the overflow buffer (bitmap bit
// set, no entry reachable) is re-installed there — the overflow buffer
// caches the *executed* overflow set rather than the fill-order one.
func (a *AirBTB) Resolve(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) {
	if !br.Taken || !br.Kind.IsBranch() {
		return
	}
	block := isa.BlockOf(br.PC)
	b := a.bundles.Ptr(uint64(block))
	if b == nil {
		return
	}
	off := uint8(isa.BlockIndex(br.PC))
	for i := uint8(0); i < b.N; i++ {
		if b.Entries[i].Offset == off {
			if !br.Kind.IsDirect() {
				b.Entries[i].Target = br.Target
			}
			return
		}
	}
	if b.Bitmap&(1<<off) == 0 {
		return
	}
	// The entry belongs to the overflow buffer; insert or refresh it.
	a.overflow.insert(br.PC, Entry{Offset: off, Kind: br.Kind, Target: br.Target})
}

// BlockFilled implements the frontend BTB interface: predecoded branches of
// the newly L1-I-resident block are installed eagerly — the first
// EntriesPerBundle into the bundle, the rest into the overflow buffer
// (§3.2).
func (a *AirBTB) BlockFilled(now float64, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
	if old := a.bundles.Ptr(uint64(block)); old != nil {
		// Refill of a resident block (shouldn't happen under strict sync);
		// drop the old state first.
		a.dropOverflowed(block, old)
	}
	var b Bundle
	for _, pb := range branches {
		b.Bitmap |= 1 << pb.Offset
		e := Entry{Offset: pb.Offset, Kind: pb.Kind, Target: pb.Target}
		if int(b.N) < a.cfg.EntriesPerBundle {
			b.Entries[b.N] = e
			b.N++
		} else {
			a.overflow.insert(pb.PC(block), e)
			a.OverflowInserts++
		}
	}
	a.bundles.Put(uint64(block), b)
	a.Fills++
}

// BlockEvicted implements the frontend BTB interface: the bundle leaves
// with its block, taking its overflowed entries along.
func (a *AirBTB) BlockEvicted(block isa.Addr) {
	b := a.bundles.Ptr(uint64(block))
	if b == nil {
		return
	}
	a.dropOverflowed(block, b)
	a.bundles.Delete(uint64(block))
	a.Evictions++
}

// StreamOnly implements the frontend BTB interface: false, because the
// bundles are filled and evicted with their L1-I blocks.
func (a *AirBTB) StreamOnly() bool { return false }

func (a *AirBTB) dropOverflowed(block isa.Addr, b *Bundle) {
	// Entries beyond the bundle's capacity live in the overflow buffer;
	// drop the bitmap slots not present in the bundle in one buffer sweep
	// (one scan for the whole block instead of one per overflowed branch).
	inBundle := uint16(0)
	for i := uint8(0); i < b.N; i++ {
		inBundle |= 1 << b.Entries[i].Offset
	}
	if over := b.Bitmap &^ inBundle; over != 0 {
		a.overflow.removeBlock(block, over)
	}
}

// overflowBuffer is the small fully-associative LRU buffer backing bundles.
// Entries are unordered; recency is a strictly increasing use-stamp and the
// victim is the minimum stamp — identical LRU semantics to an ordered list,
// with no memmove on the per-fill insert path (the ordered variant shifted
// the whole buffer on every insert, which profiling showed as the hottest
// AirBTB cost). The policy deliberately mirrors cache.Victim's stamp LRU;
// it stays a private copy because its extra verbs (removeBlock's
// block/bitmap sweep, updateTarget) are ISA-aware and don't belong on the
// generic buffer — keep the two recency schemes in lockstep.
type overflowBuffer struct {
	cap   int
	pcs   []isa.Addr
	ents  []Entry
	stamp []uint64
	clock uint64
}

func newOverflowBuffer(capacity int) *overflowBuffer {
	return &overflowBuffer{
		cap:   capacity,
		pcs:   make([]isa.Addr, 0, capacity),
		ents:  make([]Entry, 0, capacity),
		stamp: make([]uint64, 0, capacity),
	}
}

func (o *overflowBuffer) tick() uint64 {
	o.clock++
	return o.clock
}

func (o *overflowBuffer) lookup(pc isa.Addr) (Entry, bool) {
	for i, p := range o.pcs {
		if p == pc {
			o.stamp[i] = o.tick() // refresh recency
			return o.ents[i], true
		}
	}
	return Entry{}, false
}

func (o *overflowBuffer) insert(pc isa.Addr, e Entry) {
	if o.cap == 0 {
		return
	}
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i, p := range o.pcs {
		if p == pc { // present: overwrite and refresh
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

func (o *overflowBuffer) updateTarget(pc isa.Addr, target isa.Addr) {
	for i, p := range o.pcs {
		if p == pc {
			o.ents[i].Target = target
			return
		}
	}
}

func (o *overflowBuffer) remove(pc isa.Addr) {
	for i, p := range o.pcs {
		if p == pc {
			o.removeAt(i)
			return
		}
	}
}

// removeBlock drops every entry whose PC lies in the given 64B block at an
// instruction slot marked in over — the per-block form of remove used by
// bundle eviction (one scan instead of one per overflowed branch).
func (o *overflowBuffer) removeBlock(block isa.Addr, over uint16) {
	for i := 0; i < len(o.pcs); {
		pc := o.pcs[i]
		if isa.BlockOf(pc) == block && over&(1<<isa.BlockIndex(pc)) != 0 {
			o.removeAt(i)
			continue // the swapped-in entry occupies slot i now
		}
		i++
	}
}

func (o *overflowBuffer) removeAt(i int) {
	last := len(o.pcs) - 1
	o.pcs[i], o.ents[i], o.stamp[i] = o.pcs[last], o.ents[last], o.stamp[last]
	o.pcs = o.pcs[:last]
	o.ents = o.ents[:last]
	o.stamp = o.stamp[:last]
}

func (o *overflowBuffer) len() int { return len(o.pcs) }
