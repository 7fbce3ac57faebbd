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

// Design is the method set the frontend drives. Implementations outside
// this package (PhantomBTB, AirBTB) satisfy it structurally.
type Design interface {
	Name() string
	// Predict is one executed basic block's visit: it probes for the block
	// starting at bb, of nInstr instructions, whose terminating branch is
	// br (block-based designs key on br.PC's block), then trains on br —
	// designs allocate on taken branches. It returns whether the probe hit
	// and the fetch-bubble cycles it exposed (an L2 access, say).
	Predict(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) (hit bool, bubble float64)
	// BlockFilled mirrors an L1-I fill of block into slot, the L1-I's
	// flat index (set*ways + way) the block now occupies, which also says
	// which block it displaced. AirBTB and the eager-insertion
	// intermediate design points react; others ignore it.
	BlockFilled(now float64, slot int, block isa.Addr, branches []isa.PredecodedBranch, demand bool)
	// StreamOnly reports that the design's state and every Predict result
	// are a pure function of the Predict sequence: independent of now, of
	// BlockFilled, and of any other core. The frontend then calls Predict
	// from its stream half (frontend.Core.StreamPredict, passing now = 0),
	// which may run ahead of the timing half on another goroutine. Designs
	// coupled to the L1-I, the clock, or shared state return false and are
	// probed from the timing half in program order.
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

// Predict implements Design. One probe of the main set serves both
// steps: a taken branch rewrites the way the probe hit, or the way a
// victim-buffer promotion filled, or allocates the way the probe picked
// as the miss's victim — the stamps and evictions of a separate lookup
// and insert.
func (c *Conventional) Predict(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) (bool, float64) {
	k := c.key(bb, br.PC)
	i, hit := c.main.Probe(k)
	if !hit && c.victim != nil {
		if e, ok := c.victim.Take(k); ok {
			c.put(i, k, e) // promote
			hit = true
		}
	}
	if br.Taken && br.Kind.IsBranch() {
		c.put(i, k, Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)})
	}
	return hit, 0
}

// put stores (k, e) at main-store index i (see cache.Assoc.Put), spilling
// a displaced entry into the victim buffer.
func (c *Conventional) put(i int, k uint64, e Entry) {
	evKey, evVal, ev := c.main.Put(i, k, e)
	if ev && c.victim != nil {
		c.victim.Put(evKey, evVal)
	}
}

func (c *Conventional) insert(k uint64, e Entry) {
	evKey, evVal, ev := c.main.Insert(k, e)
	if ev && c.victim != nil {
		c.victim.Put(evKey, evVal)
	}
}

// BlockFilled implements Design; only the eager variant reacts.
func (c *Conventional) BlockFilled(now float64, slot int, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
	if !c.eager {
		return
	}
	for _, b := range branches {
		c.insert(uint64(b.PC(block))>>2, Entry{Kind: b.Kind, Target: b.Target})
	}
}

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

// Predict implements Design: an L1 hit is free; an L2 hit exposes the
// bubble and promotes the entry. A taken branch then installs its entry
// in both levels.
func (t *TwoLevel) Predict(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) (hit bool, bubble float64) {
	k := uint64(bb) >> 2
	if _, hit = t.l1.Lookup(k); !hit {
		var e Entry
		if e, hit = t.l2.Lookup(k); hit {
			t.L2Hits++
			t.promote(k, e)
			bubble = t.l2Bubble
		} else {
			t.L2Misses++
		}
	}
	if br.Taken && br.Kind.IsBranch() {
		e := Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)}
		t.promote(k, e)
		t.l2.Insert(k, e)
	}
	return hit, bubble
}

func (t *TwoLevel) promote(k uint64, e Entry) {
	evKey, evVal, ev := t.l1.Insert(k, e)
	if ev {
		t.l2.Insert(evKey, evVal) // L1 victims spill to L2 (exclusive-ish)
	}
}

// BlockFilled implements Design (no-op).
func (t *TwoLevel) BlockFilled(now float64, slot int, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
}

// StreamOnly implements Design: both levels evolve from Predict alone
// (the L2Hits/L2Misses diagnostics count along).
func (t *TwoLevel) StreamOnly() bool { return true }
