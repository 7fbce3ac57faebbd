// Package phantom implements PhantomBTB (Burcea & Moshovos, ASPLOS'09) as
// configured by the paper: a 1K-entry conventional first-level BTB with a
// 64-entry prefetch buffer, backed by temporal groups of BTB entries
// virtualized into LLC lines — six entries per 64B line, 4K lines, tagged by
// a 32-instruction code region — shared across cores (the paper's
// SHIFT-inspired variant). A first-level miss triggers a group prefetch from
// the LLC; the group arrives after an LLC round trip, so its usefulness
// depends on the miss recurring soon (temporal correlation).
package phantom

import (
	"confluence/internal/btb"
	"confluence/internal/cache"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

// GroupEntries is how many BTB entries fit in one virtualized LLC line
// (the paper packs six).
const GroupEntries = 6

// regionShift tags temporal groups with a 32-instruction (128-byte) region.
const regionShift = 7

type taggedEntry struct {
	key uint64 // BTB key (bb start >> 2)
	e   btb.Entry
}

type group struct {
	n       int
	entries [GroupEntries]taggedEntry
}

// Store is the shared virtualized temporal-group table living in LLC data
// blocks: 4K lines by default, LRU over regions. One Store is shared by all
// cores running the workload. Groups are stored by value — one LLC line's
// worth of entries inline in the tag store — so group insertion does not
// allocate.
type Store struct {
	groups *cache.Assoc[group]
}

// NewStore creates a store with the given number of LLC lines (power of
// two; the paper dedicates 4K lines = 256KB).
func NewStore(lines int) *Store {
	return &Store{groups: cache.NewAssoc[group](lines/4, 4)}
}

// Bytes returns the LLC footprint of the store.
func (s *Store) Bytes() int { return s.groups.Capacity() * isa.BlockBytes }

// PhantomBTB is the per-core view: private first level + prefetch buffer,
// shared virtualized second level.
type PhantomBTB struct {
	name  string
	l1    *cache.Assoc[btb.Entry]
	pfbuf *cache.Victim[btb.Entry]
	store *Store

	// Group formation: consecutive L1-BTB misses accumulate into cur,
	// tagged by the region of the first miss.
	cur       group
	curRegion uint64
	curValid  bool
	missPend  bool // last lookup missed; Resolve appends to the group

	// Pending group fills (LLC latency) awaiting arrival.
	pending []pendingFill

	// metaLatency is the representative LLC metadata round-trip for this
	// core's tile.
	metaLatency float64

	// asBase tags region keys in the shared store with this core's
	// address space (workload consolidation): cores running different
	// workloads compete for store capacity without aliasing regions. Zero —
	// every homogeneous run — is the identity.
	asBase isa.Addr

	// deferred switches the shared store to bound-phase semantics: reads
	// answer from the frozen contents (Peek, no LRU/counter update) and
	// every store operation is logged instead of applied; ApplyLog replays
	// the log at the weave barrier. Private state (L1, prefetch buffer,
	// group formation, pending fills) always updates immediately.
	deferred bool
	log      []storeOp

	GroupFills, GroupHits uint64
}

// storeOp is one logged shared-store operation: a group-table probe (the
// LRU touch and hit/miss accounting of a Lookup) or a completed-group
// insertion.
type storeOp struct {
	region uint64
	g      group
	insert bool
}

type pendingFill struct {
	ready float64
	g     group
}

// New creates a per-core PhantomBTB over a shared store. l1Sets×l1Ways is
// the first level (the paper's is 1K entries, 4-way); pfEntries the
// prefetch buffer (64); metaLatency the LLC round-trip cycles for group
// fetches.
func New(name string, l1Sets, l1Ways, pfEntries int, store *Store, metaLatency float64) *PhantomBTB {
	return NewASID(name, l1Sets, l1Ways, pfEntries, store, metaLatency, 0)
}

// NewASID is New with an address-space tag (isa.ASIDBase of the core's mix
// slot) applied to the shared store's region keys.
func NewASID(name string, l1Sets, l1Ways, pfEntries int, store *Store, metaLatency float64, asBase isa.Addr) *PhantomBTB {
	return &PhantomBTB{
		name:        name,
		l1:          cache.NewAssoc[btb.Entry](l1Sets, l1Ways),
		pfbuf:       cache.NewVictim[btb.Entry](pfEntries),
		store:       store,
		metaLatency: metaLatency,
		asBase:      asBase,
	}
}

// Name implements the frontend BTB interface.
func (p *PhantomBTB) Name() string { return p.name }

func region(pc isa.Addr) uint64 { return uint64(pc) >> regionShift }

// drain moves arrived group fills into the prefetch buffer.
func (p *PhantomBTB) drain(now float64) {
	kept := p.pending[:0]
	for _, f := range p.pending {
		if f.ready <= now {
			for i := 0; i < f.g.n; i++ {
				te := f.g.entries[i]
				p.pfbuf.Put(te.key, te.e)
			}
		} else {
			kept = append(kept, f)
		}
	}
	p.pending = kept
}

// Lookup implements the frontend BTB interface.
func (p *PhantomBTB) Lookup(now float64, bb, brPC isa.Addr) btb.Result {
	p.drain(now)
	k := uint64(bb) >> 2
	if e, ok := p.l1.Lookup(k); ok {
		p.missPend = false
		return btb.Result{Hit: true, Entry: e}
	}
	if e, ok := p.pfbuf.Take(k); ok {
		p.insertL1(k, e)
		p.missPend = false
		p.GroupHits++
		return btb.Result{Hit: true, Entry: e}
	}
	// First-level miss: trigger a group prefetch for this region and let
	// Resolve append the missing entry to the forming group.
	p.missPend = true
	r := region(bb | p.asBase)
	if p.deferred {
		p.log = append(p.log, storeOp{region: r})
		if g, ok := p.store.groups.Peek(r); ok {
			p.pending = append(p.pending, pendingFill{ready: now + p.metaLatency, g: g})
			p.GroupFills++
		}
	} else if g, ok := p.store.groups.Lookup(r); ok {
		p.pending = append(p.pending, pendingFill{ready: now + p.metaLatency, g: g})
		p.GroupFills++
	}
	return btb.Result{}
}

// SetDeferred switches the shared group store between immediate and
// bound-phase (probe-and-log) semantics; see the deferred field. Turning
// deferral off does not discard a pending log — ApplyLog drains it.
func (p *PhantomBTB) SetDeferred(on bool) { p.deferred = on }

// ApplyLog replays the logged store operations — probe touches and group
// insertions, in call order — against the shared store and clears the log.
// The weave barrier calls this per core in canonical order, so the store's
// contents, replacement state, and counters evolve identically for any
// bound-phase worker count.
func (p *PhantomBTB) ApplyLog() {
	for i := range p.log {
		op := &p.log[i]
		if op.insert {
			p.store.groups.Insert(op.region, op.g)
		} else {
			p.store.groups.Lookup(op.region)
		}
	}
	p.log = p.log[:0]
}

// PendingLog returns the number of unapplied logged store operations
// (tests).
func (p *PhantomBTB) PendingLog() int { return len(p.log) }

func (p *PhantomBTB) insertL1(k uint64, e btb.Entry) {
	p.l1.Insert(k, e)
}

// Resolve implements the frontend BTB interface: install the resolved entry
// in the first level and, when the lookup missed, append it to the current
// temporal group (consecutive misses pack together).
func (p *PhantomBTB) Resolve(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) {
	if !br.Kind.IsBranch() || !br.Taken {
		p.missPend = false
		return
	}
	k := uint64(bb) >> 2
	e := btb.Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)}
	p.insertL1(k, e)
	if !p.missPend {
		return
	}
	p.missPend = false
	if !p.curValid {
		p.curValid = true
		p.curRegion = region(bb | p.asBase)
		p.cur = group{}
	}
	p.cur.entries[p.cur.n] = taggedEntry{key: k, e: e}
	p.cur.n++
	if p.cur.n == GroupEntries {
		if p.deferred {
			p.log = append(p.log, storeOp{region: p.curRegion, g: p.cur, insert: true})
		} else {
			p.store.groups.Insert(p.curRegion, p.cur)
		}
		p.curValid = false
	}
}

// BlockFilled implements the frontend BTB interface (no-op: PhantomBTB is
// decoupled from L1-I content).
func (p *PhantomBTB) BlockFilled(now float64, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
}

// BlockEvicted implements the frontend BTB interface (no-op).
func (p *PhantomBTB) BlockEvicted(block isa.Addr) {}

// StreamOnly implements the frontend BTB interface: false, because
// lookups read the group store other cores write and time its fills.
func (p *PhantomBTB) StreamOnly() bool { return false }
