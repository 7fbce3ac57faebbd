// Package btb implements branch target buffer designs: the conventional
// basic-block-oriented BTB (the paper's baseline, with victim buffer), the
// aggressive two-level hierarchy (1K-entry L1 + 16K-entry 4-cycle L2), and
// an "ideal" large single-cycle BTB. PhantomBTB and AirBTB live in their own
// packages; all designs satisfy the frontend's BTB interface.
package btb

import (
	"confluence/internal/cache"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

// Entry is one BTB record, following the paper's basic-block organization:
// tagged by the block's starting address, holding the type and target of the
// branch that ends the block plus the fall-through distance (4 bits suffice
// for 99% of basic blocks; the generator caps blocks at 15 instructions).
type Entry struct {
	Kind   isa.BranchKind
	Target isa.Addr
	FallN  uint8 // basic-block length in instructions
}

// Result is the outcome of a BTB probe.
type Result struct {
	Hit    bool
	Entry  Entry
	Bubble float64 // fetch-bubble cycles exposed by this lookup (L2 access)
}

// Design is the method set the frontend drives. Implementations outside
// this package (PhantomBTB, AirBTB) satisfy it structurally.
type Design interface {
	Name() string
	// Lookup probes for the basic block starting at bb whose terminating
	// branch is at brPC (block-based designs key on brPC's block).
	Lookup(now float64, bb, brPC isa.Addr) Result
	// Resolve is called after every executed basic block so the design can
	// allocate/train; designs allocate on taken branches.
	Resolve(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo)
	// BlockFilled/BlockEvicted mirror L1-I content changes (used by AirBTB
	// and the eager-insertion intermediate design points; others ignore).
	BlockFilled(now float64, block isa.Addr, branches []isa.PredecodedBranch, demand bool)
	BlockEvicted(block isa.Addr)
	// StreamOnly reports that the design's state and every Lookup result
	// are a pure function of the Lookup/Resolve sequence: independent of
	// now, of BlockFilled/BlockEvicted, and of any other core. The
	// frontend then drives Lookup and Resolve from its stream half
	// (frontend.Core.StreamPredict, passing now = 0), which may run ahead
	// of the timing half on another goroutine. Designs coupled to the
	// L1-I, the clock, or shared state return false and are probed from
	// the timing half in program order.
	StreamOnly() bool
}

// TagMode selects how Conventional keys its entries.
type TagMode int

const (
	// TagByBB tags entries with the basic-block start address (the paper's
	// conventional organization).
	TagByBB TagMode = iota
	// TagByBranchPC tags entries with the branch instruction address; used
	// by the eager-insertion intermediate design points of Fig 8, where
	// entries are installed from predecode before block boundaries are
	// known.
	TagByBranchPC
)

// Conventional is the set-associative basic-block BTB with an optional
// fully-associative victim buffer.
type Conventional struct {
	name   string
	mode   TagMode
	main   *cache.Assoc[Entry]
	victim *cache.Victim[Entry] // nil when absent
	eager  bool                 // install all predecoded branches on block fill
}

// NewConventional builds a BTB with sets (power of two) × ways entries and
// a victimEntries-deep victim buffer (0 disables it).
func NewConventional(name string, sets, ways, victimEntries int) *Conventional {
	c := &Conventional{
		name: name,
		main: cache.NewAssoc[Entry](sets, ways),
	}
	if victimEntries > 0 {
		c.victim = cache.NewVictim[Entry](victimEntries)
	}
	return c
}

// NewEager builds the Fig 8 intermediate design: conventional organization
// (tagged per branch) that eagerly installs every predecoded branch of a
// filled instruction block.
func NewEager(name string, sets, ways, victimEntries int) *Conventional {
	c := NewConventional(name, sets, ways, victimEntries)
	c.mode = TagByBranchPC
	c.eager = true
	return c
}

// Name implements Design.
func (c *Conventional) Name() string { return c.name }

// Capacity returns the main-structure entry count.
func (c *Conventional) Capacity() int { return c.main.Capacity() }

func (c *Conventional) key(bb, brPC isa.Addr) uint64 {
	if c.mode == TagByBranchPC {
		return uint64(brPC) >> 2
	}
	return uint64(bb) >> 2
}

// Lookup implements Design.
func (c *Conventional) Lookup(now float64, bb, brPC isa.Addr) Result {
	k := c.key(bb, brPC)
	if e, ok := c.main.Lookup(k); ok {
		return Result{Hit: true, Entry: e}
	}
	if c.victim != nil {
		if e, ok := c.victim.Take(k); ok {
			c.insert(k, e) // promote
			return Result{Hit: true, Entry: e}
		}
	}
	return Result{}
}

func (c *Conventional) insert(k uint64, e Entry) {
	evKey, evVal, ev := c.main.Insert(k, e)
	if ev && c.victim != nil {
		c.victim.Put(evKey, evVal)
	}
}

// Resolve implements Design: allocate/update on taken branches.
func (c *Conventional) Resolve(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) {
	if !br.Kind.IsBranch() || !br.Taken {
		return
	}
	c.insert(c.key(bb, br.PC), Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)})
}

// BlockFilled implements Design; only the eager variant reacts.
func (c *Conventional) BlockFilled(now float64, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
	if !c.eager {
		return
	}
	for _, b := range branches {
		c.insert(uint64(b.PC(block))>>2, Entry{Kind: b.Kind, Target: b.Target})
	}
}

// BlockEvicted implements Design (no-op: conventional BTBs are decoupled
// from L1-I content).
func (c *Conventional) BlockEvicted(block isa.Addr) {}

// StreamOnly implements Design: only the eager variant reacts to L1-I
// fills.
func (c *Conventional) StreamOnly() bool { return !c.eager }

// TwoLevel is the aggressive hierarchical BTB: a small single-cycle first
// level backed by a large second level whose access latency is exposed as a
// fetch bubble on every L1 miss / L2 hit (the paper's central criticism of
// reactive hierarchies).
type TwoLevel struct {
	name     string
	l1, l2   *cache.Assoc[Entry]
	l2Bubble float64

	L2Hits, L2Misses uint64
}

// NewTwoLevel builds a two-level BTB; l2Bubble is the exposed L2 access
// latency in cycles (the paper's 16K-entry L2 has a 4-cycle latency; 3
// cycles beyond the single-cycle L1).
func NewTwoLevel(name string, l1Sets, l1Ways, l2Sets, l2Ways int, l2Bubble float64) *TwoLevel {
	return &TwoLevel{
		name:     name,
		l1:       cache.NewAssoc[Entry](l1Sets, l1Ways),
		l2:       cache.NewAssoc[Entry](l2Sets, l2Ways),
		l2Bubble: l2Bubble,
	}
}

// Name implements Design.
func (t *TwoLevel) Name() string { return t.name }

// Lookup implements Design: L1 hit is free; an L2 hit exposes the bubble and
// promotes the entry.
func (t *TwoLevel) Lookup(now float64, bb, brPC isa.Addr) Result {
	k := uint64(bb) >> 2
	if e, ok := t.l1.Lookup(k); ok {
		return Result{Hit: true, Entry: e}
	}
	if e, ok := t.l2.Lookup(k); ok {
		t.L2Hits++
		t.promote(k, e)
		return Result{Hit: true, Entry: e, Bubble: t.l2Bubble}
	}
	t.L2Misses++
	return Result{}
}

func (t *TwoLevel) promote(k uint64, e Entry) {
	evKey, evVal, ev := t.l1.Insert(k, e)
	if ev {
		t.l2.Insert(evKey, evVal) // L1 victims spill to L2 (exclusive-ish)
	}
}

// Resolve implements Design.
func (t *TwoLevel) Resolve(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) {
	if !br.Kind.IsBranch() || !br.Taken {
		return
	}
	e := Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)}
	k := uint64(bb) >> 2
	t.promote(k, e)
	t.l2.Insert(k, e)
}

// BlockFilled implements Design (no-op).
func (t *TwoLevel) BlockFilled(now float64, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
}

// BlockEvicted implements Design (no-op).
func (t *TwoLevel) BlockEvicted(block isa.Addr) {}

// StreamOnly implements Design: both levels evolve from Lookup/Resolve
// alone (the L2Hits/L2Misses diagnostics count along).
func (t *TwoLevel) StreamOnly() bool { return true }
