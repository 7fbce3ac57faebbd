// Package airbtb implements AirBTB, the paper's block-based BTB whose
// contents mirror the L1-I (§3.1–3.3).
//
// AirBTB keeps one bundle per L1-I-resident instruction block, and here
// the bundles live in the L1-I's own slots: an AirBTB is bound to its
// core's L1-I (Bind), and bundle i belongs to whichever block occupies
// L1-I slot i (set*ways + way). A bundle is tagged by its block
// (amortizing the tag over all branches in the block), carries a 16-bit
// branch bitmap marking which instruction slots hold branches, and holds
// a fixed number of branch entries — the block's first EntriesPerBundle
// branches. Branches that do not fit overflow into a small
// fully-associative LRU overflow buffer — cache.Victim, the same buffer
// the conventional BTB's victim buffer and PhantomBTB's prefetch buffer
// use, keyed by branch PC. A bundle is written only by the fill of its
// L1-I slot — Confluence's synchronization — so the bundle store never
// conflicts between two L1-I-resident blocks, and a fill that displaces a
// block first drops that block's overflowed entries one bitmap slot at a
// time.
//
// The model reads only whether a branch is reachable, never its stored
// target or type, so a bundle keeps the offsets of its entries and no
// target fields; the overflow buffer keeps whole entries.
package airbtb

import (
	"fmt"
	"math/bits"

	"confluence/internal/cache"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

// Entry is one overflowed branch record.
type Entry struct {
	Target isa.Addr
	Offset uint8 // instruction slot within the block
	Kind   isa.BranchKind
}

// maxEntries bounds EntriesPerBundle: the paper evaluates 3 and 4.
const maxEntries = 4

// Config sizes AirBTB. The paper's final design: 512 bundles (as many as
// L1-I blocks), 3 entries per bundle, a 32-entry overflow buffer.
type Config struct {
	Bundles          int // must equal the L1-I block count (Bind checks)
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

// noOwner marks a bundle slot no fill has written yet; no block key
// (an address shifted right by isa.BlockShift) reaches it.
const noOwner = ^uint64(0)

// AirBTB is one core's instance. Its bundles are written exclusively by
// BlockFilled, which the frontend calls on every fill of the bound L1-I.
//
// owner and mask are indexed by L1-I slot. owner[s] is the block key of
// the bundle in slot s, or noOwner; mask[s] holds that block's branch
// bitmap in its low 16 bits and, in its high 16, the offsets of the
// branches the bundle holds itself — its first EntriesPerBundle. The
// overflow buffer is nil when the configuration has none.
type AirBTB struct {
	cfg      Config
	l1i      *cache.Cache
	owner    []uint64
	mask     []uint32
	overflow *cache.Victim[Entry]

	// Stats.
	Fills, Evictions    uint64
	OverflowInserts     uint64
	OverflowMissedSlots uint64 // branch marked in bitmap but entry lost
}

// New creates an AirBTB; Bind must attach it to its L1-I before use.
func New(cfg Config) *AirBTB {
	if cfg.EntriesPerBundle < 1 || cfg.EntriesPerBundle > maxEntries {
		panic("airbtb: entries per bundle out of range")
	}
	if cfg.Bundles <= 0 {
		panic("airbtb: bundle count must be positive")
	}
	a := &AirBTB{cfg: cfg, owner: make([]uint64, cfg.Bundles), mask: make([]uint32, cfg.Bundles)}
	for i := range a.owner {
		a.owner[i] = noOwner
	}
	if cfg.OverflowEntries > 0 {
		a.overflow = cache.NewVictim[Entry](cfg.OverflowEntries)
	}
	return a
}

// Bind attaches the L1-I whose slots hold the bundles. The L1-I must be
// empty and hold exactly Config.Bundles blocks.
func (a *AirBTB) Bind(l1i *cache.Cache) {
	if l1i.Capacity() != a.cfg.Bundles {
		panic(fmt.Sprintf("airbtb: %d bundles bound to a %d-block L1-I", a.cfg.Bundles, l1i.Capacity()))
	}
	if l1i.Len() != 0 {
		panic("airbtb: bound to a non-empty L1-I")
	}
	a.l1i = l1i
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
func (a *AirBTB) Resident() int {
	n := 0
	for _, o := range a.owner {
		if o != noOwner {
			n++
		}
	}
	return n
}

// HasBundle reports whether a bundle exists for the given block address
// (used by the L1-I/AirBTB synchronization invariant checks).
func (a *AirBTB) HasBundle(block isa.Addr) bool {
	key := uint64(block) >> isa.BlockShift
	for _, o := range a.owner {
		if o == key {
			return true
		}
	}
	return false
}

// Predict implements the frontend BTB interface by finding the branch's
// block in the bound L1-I and taking PredictSlot's verdict.
func (a *AirBTB) Predict(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) (bool, float64) {
	slot, resident := a.l1i.Find(uint64(br.PC) >> isa.BlockShift)
	return a.PredictSlot(slot, resident, br), 0
}

// PredictSlot predicts br, whose block the caller found at slot of the
// bound L1-I (resident false: not in the L1-I), and trains on it; the
// slot must still hold that block, so that its bundle is the block's. The
// prediction hits when the block's bundle holds the branch, or its
// bitmap marks the branch and the overflow buffer holds it; a missing
// bundle or a lost overflowed entry is a miss, in which case the BPU
// falls back to a speculative sequential fetch region (§3.3). A taken
// branch whose entry belongs to the overflow buffer is then installed or
// refreshed there — the buffer caches the *executed* overflow set rather
// than the fill-order one.
func (a *AirBTB) PredictSlot(slot int, resident bool, br trace.BranchInfo) bool {
	if !resident {
		return false
	}
	off := uint8(isa.BlockIndex(br.PC))
	bit := uint32(1) << off
	m := a.mask[slot]
	if m&bit == 0 {
		// Bitmap says "no branch here": sync guarantees bitmaps reflect the
		// block's true static branches, so this cannot happen for executed
		// branches; treat defensively as a miss.
		return false
	}
	if m&(bit<<16) != 0 {
		return true
	}
	if a.overflow == nil {
		a.OverflowMissedSlots++
		return false
	}
	key := overflowKey(br.PC)
	_, hit := a.overflow.Peek(key)
	if !hit {
		a.OverflowMissedSlots++
	}
	if br.Taken && br.Kind.IsBranch() {
		a.overflow.Put(key, Entry{Offset: off, Kind: br.Kind, Target: br.Target})
	}
	return hit
}

// BlockFilled implements the frontend BTB interface: block has just been
// filled into L1-I slot slot. The bundle the slot held leaves first,
// taking its overflowed entries along; then the new block's predecoded
// branches are installed eagerly — the first EntriesPerBundle into the
// bundle, the rest into the overflow buffer (§3.2).
func (a *AirBTB) BlockFilled(now float64, slot int, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
	key := uint64(block) >> isa.BlockShift
	if old := a.owner[slot]; old != noOwner {
		a.dropOverflowed(old, a.mask[slot])
		if old != key {
			a.Evictions++
		}
	}
	var bitmap, held uint32
	for i, pb := range branches {
		bitmap |= 1 << pb.Offset
		if i < a.cfg.EntriesPerBundle {
			held |= 1 << pb.Offset
			continue
		}
		if a.overflow != nil {
			a.overflow.Put(overflowKey(pb.PC(block)), Entry{Offset: pb.Offset, Kind: pb.Kind, Target: pb.Target})
		}
		a.OverflowInserts++
	}
	a.owner[slot], a.mask[slot] = key, bitmap|held<<16
	a.Fills++
}

// StreamOnly implements the frontend BTB interface: false, because the
// bundles are filled with their L1-I blocks.
func (a *AirBTB) StreamOnly() bool { return false }

// dropOverflowed removes from the overflow buffer, in ascending offset
// order, the entries of the branches in block key's bitmap that its
// bundle (mask) does not hold itself.
func (a *AirBTB) dropOverflowed(key uint64, mask uint32) {
	if a.overflow == nil {
		return
	}
	block := key << isa.BlockShift
	for over := uint16(mask) &^ uint16(mask>>16); over != 0; over &= over - 1 {
		off := bits.TrailingZeros16(over)
		a.overflow.Remove(block + uint64(off*isa.InstrBytes))
	}
}
