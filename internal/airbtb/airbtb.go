// Package airbtb implements AirBTB, the paper's block-based BTB whose
// contents mirror the L1-I (§3.1–3.3).
//
// AirBTB keeps one bundle per L1-I-resident instruction block. A bundle is
// tagged by the block address (amortizing the tag over all branches in the
// block), carries a 16-bit branch bitmap marking which instruction slots
// hold branches, and stores a fixed number of branch entries (offset, type,
// target). Branches that do not fit overflow into a small fully-associative
// LRU overflow buffer — cache.Victim, the same buffer the conventional
// BTB's victim buffer and PhantomBTB's prefetch buffer use, keyed by
// branch PC. Insertions and evictions are driven by L1-I fills and
// evictions — Confluence's synchronization — so the bundle store never
// conflicts between two L1-I-resident blocks, and a bundle's eviction
// drops its overflowed entries one bitmap slot at a time.
package airbtb

import (
	"math/bits"

	"confluence/internal/btb"
	"confluence/internal/cache"
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
// hashing on the lookup path. The overflow buffer is nil when the
// configuration has none.
type AirBTB struct {
	cfg      Config
	bundles  *flatmap.Map[Bundle]
	overflow *cache.Victim[Entry]

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
	a := &AirBTB{cfg: cfg, bundles: flatmap.New[Bundle](cfg.Bundles)}
	if cfg.OverflowEntries > 0 {
		a.overflow = cache.NewVictim[Entry](cfg.OverflowEntries)
	}
	return a
}

// overflowKey keys a branch's overflow entry by its instruction slot:
// the PC with the bits below an instruction cleared, so the bundle's
// bitmap slot alone names the entry to drop when the block leaves. Branch
// PCs are instruction-aligned (the trace reader rejects a record that is
// not), so the key is the PC itself.
func overflowKey(pc isa.Addr) uint64 { return uint64(pc &^ (isa.InstrBytes - 1)) }

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
	if a.overflow != nil {
		if e, ok := a.overflow.Peek(overflowKey(brPC)); ok {
			return btb.Result{Hit: true, Entry: btb.Entry{Kind: e.Kind, Target: e.Target}}
		}
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
	if a.overflow != nil {
		a.overflow.Put(overflowKey(br.PC), Entry{Offset: off, Kind: br.Kind, Target: br.Target})
	}
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
			if a.overflow != nil {
				a.overflow.Put(overflowKey(pb.PC(block)), e)
			}
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

// dropOverflowed removes from the overflow buffer the entries of the
// branches in b's bitmap that the bundle does not hold itself.
func (a *AirBTB) dropOverflowed(block isa.Addr, b *Bundle) {
	if a.overflow == nil {
		return
	}
	inBundle := uint16(0)
	for i := uint8(0); i < b.N; i++ {
		inBundle |= 1 << b.Entries[i].Offset
	}
	for over := b.Bitmap &^ inBundle; over != 0; over &= over - 1 {
		off := bits.TrailingZeros16(over)
		a.overflow.Remove(uint64(block) + uint64(off*isa.InstrBytes))
	}
}
