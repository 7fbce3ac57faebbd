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

	GroupFills, GroupHits uint64
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

// Predict implements the frontend BTB interface: the lookup, then the
// resolve of the block's terminating branch.
func (p *PhantomBTB) Predict(now float64, bb isa.Addr, nInstr int, br trace.BranchInfo) (bool, float64) {
	hit := p.lookup(now, bb)
	p.resolve(bb, nInstr, br, !hit)
	return hit, 0
}

// lookup probes the first level, then the prefetch buffer; a miss in both
// triggers a group prefetch for the block's region.
func (p *PhantomBTB) lookup(now float64, bb isa.Addr) bool {
	p.drain(now)
	k := uint64(bb) >> 2
	if _, ok := p.l1.Lookup(k); ok {
		return true
	}
	if e, ok := p.pfbuf.Take(k); ok {
		p.l1.Insert(k, e)
		p.GroupHits++
		return true
	}
	if g, ok := p.store.groups.Lookup(region(bb | p.asBase)); ok {
		p.pending = append(p.pending, pendingFill{ready: now + p.metaLatency, g: g})
		p.GroupFills++
	}
	return false
}

// resolve installs a taken branch's entry in the first level and, when
// the lookup missed, appends it to the current temporal group
// (consecutive misses pack together).
func (p *PhantomBTB) resolve(bb isa.Addr, nInstr int, br trace.BranchInfo, missed bool) {
	if !br.Kind.IsBranch() || !br.Taken {
		return
	}
	k := uint64(bb) >> 2
	e := btb.Entry{Kind: br.Kind, Target: br.Target, FallN: uint8(nInstr)}
	p.l1.Insert(k, e)
	if !missed {
		return
	}
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

// BlockFilled implements the frontend BTB interface (no-op: PhantomBTB is
// decoupled from L1-I content).
func (p *PhantomBTB) BlockFilled(now float64, slot int, block isa.Addr, branches []isa.PredecodedBranch, demand bool) {
}

// StreamOnly implements the frontend BTB interface: false, because
// lookups read the group store other cores write and time its fills.
func (p *PhantomBTB) StreamOnly() bool { return false }
