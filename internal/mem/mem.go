// Package mem assembles the shared memory hierarchy below the L1-I: a
// banked NUCA LLC reached over the mesh, backed by main memory, with support
// for reserving LLC capacity for virtualized predictor metadata (predictor
// virtualization is how both SHIFT and PhantomBTB store their history
// without dedicated SRAM).
package mem

import (
	"confluence/internal/cache"
	"confluence/internal/isa"
	"confluence/internal/noc"
)

// Config sizes the hierarchy. Defaults mirror the paper's Table 1.
type Config struct {
	Banks           int // LLC slices (= tiles)
	LLCBytesPerBank int
	LLCWays         int
	LLCHitCycles    int // bank access latency
	MemCycles       int // main-memory access latency (45ns @ 3GHz)
	Mesh            *noc.Mesh
}

// DefaultConfig returns the paper's 16-tile configuration: 512KB/bank,
// 16-way, 6-cycle banks, 4x4 mesh at 3 cycles/hop, 135-cycle memory.
func DefaultConfig() Config {
	return Config{
		Banks:           16,
		LLCBytesPerBank: 512 << 10,
		LLCWays:         16,
		LLCHitCycles:    6,
		MemCycles:       135,
		Mesh:            noc.New(4, 4, 3),
	}
}

// Hierarchy is the shared LLC + memory. It is shared by all cores of the
// CMP; per-core L1-Is live in the frontend model.
type Hierarchy struct {
	cfg  Config
	llc  *cache.Cache
	rsvd int // blocks reserved for virtualized metadata

	// bankMask is Banks-1 when Banks is a power of two (the common CMP
	// geometries), turning the per-access bank modulo — an integer divide
	// on the LLC latency path — into a mask; -1 otherwise.
	bankMask int

	// Stats.
	LLCHits, LLCMisses uint64
}

// New builds the hierarchy. reservedMetadataBytes is the LLC capacity
// claimed by virtualized predictor state (SHIFT history, PhantomBTB groups);
// it reduces the capacity available for instruction blocks.
func New(cfg Config, reservedMetadataBytes int) *Hierarchy {
	totalBlocks := cfg.Banks * cfg.LLCBytesPerBank / isa.BlockBytes
	rsvd := (reservedMetadataBytes + isa.BlockBytes - 1) / isa.BlockBytes
	avail := totalBlocks - rsvd
	if avail < cfg.LLCWays {
		avail = cfg.LLCWays
	}
	// Round sets down to a power of two.
	sets := 1
	for sets*2*cfg.LLCWays <= avail {
		sets *= 2
	}
	bankMask := -1
	if cfg.Banks > 0 && cfg.Banks&(cfg.Banks-1) == 0 {
		bankMask = cfg.Banks - 1
	}
	return &Hierarchy{
		cfg:      cfg,
		llc:      cache.New(sets, cfg.LLCWays),
		rsvd:     rsvd,
		bankMask: bankMask,
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// ReservedBlocks returns the LLC blocks claimed by virtualized metadata.
func (h *Hierarchy) ReservedBlocks() int { return h.rsvd }

// LLC exposes the underlying tag store (tests, capacity checks).
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// bank maps a block address to its LLC slice (address interleaved).
func (h *Hierarchy) bank(block isa.Addr) int {
	if h.bankMask >= 0 {
		return int(block>>isa.BlockShift) & h.bankMask
	}
	return int(block>>isa.BlockShift) % h.cfg.Banks
}

// key converts a block address to a tag-store key; the low zero bits of an
// aligned address must not reach the set index.
func key(block isa.Addr) uint64 { return uint64(block) >> isa.BlockShift }

// AccessLatency returns the latency, in cycles, for tile `core` to obtain
// `block` from the LLC (filling from memory on an LLC miss, which also
// installs the block in the LLC). The block address must be 64B-aligned.
func (h *Hierarchy) AccessLatency(core int, block isa.Addr) (cycles int, llcHit bool) {
	b := h.bank(block)
	lat := h.cfg.Mesh.RoundTrip(core, b) + h.cfg.LLCHitCycles
	if h.llc.Lookup(key(block)) {
		h.LLCHits++
		return lat, true
	}
	h.LLCMisses++
	h.llc.Insert(key(block))
	return lat + h.cfg.MemCycles, false
}

// Warm touches the LLC with a demand for block without charging latency
// or counters — the functional fast-forward path's view of the
// hierarchy. Contents and replacement state evolve exactly as under
// AccessLatency (lookup refreshes LRU, a miss installs the block); only
// the timing and the hit/miss statistics are skipped.
func (h *Hierarchy) Warm(block isa.Addr) {
	if !h.llc.Lookup(key(block)) {
		h.llc.Insert(key(block))
	}
}

// ExportLLCState captures the LLC tag store for a warm-up snapshot.
func (h *Hierarchy) ExportLLCState() cache.CacheState { return h.llc.ExportState() }

// RestoreLLCState overwrites the LLC contents from a snapshot.
func (h *Hierarchy) RestoreLLCState(st cache.CacheState) error { return h.llc.RestoreState(st) }

// MetadataLatency returns the cost of reading virtualized predictor
// metadata homed in the LLC from tile `core`: a mesh round trip to the bank
// holding the metadata line plus the bank access. Metadata reads never miss
// (the reserved region is pinned).
func (h *Hierarchy) MetadataLatency(core int, line isa.Addr) int {
	return h.cfg.Mesh.RoundTrip(core, h.bank(line)) + h.cfg.LLCHitCycles
}

// AvgLLCLatency returns the expected LLC-hit latency from a tile, used by
// components that need a representative latency rather than a per-access
// one (e.g. prefetch scheduling).
func (h *Hierarchy) AvgLLCLatency(core int) float64 {
	return h.cfg.Mesh.AvgRoundTrip(core) + float64(h.cfg.LLCHitCycles)
}

// ResetStats zeroes hit/miss counters (warmup boundary).
func (h *Hierarchy) ResetStats() {
	h.LLCHits, h.LLCMisses = 0, 0
	h.llc.ResetStats()
}
