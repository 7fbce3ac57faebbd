// Package shift implements SHIFT (Kaynak, Grot, Falsafi, MICRO'13), the
// shared-history stream-based instruction prefetcher Confluence builds on.
//
// One core — the history generator — logs its L1-I access stream at block
// granularity (consecutive duplicates collapsed) into a circular history
// buffer; an index table maps a block address to its most recent position.
// Both structures are virtualized into the LLC: the history buffer occupies
// reserved LLC blocks and the index extends the LLC tag array, so the only
// dedicated silicon is the tag extension (the area model accounts for
// exactly that).
//
// Every core replays the shared history: an L1-I miss looks up the index
// and, on a hit, streams the blocks that followed the previous occurrence,
// keeping a lookahead window of in-flight predictions that advances as the
// core's demand stream confirms them.
//
// Both bookkeeping structures are flat: the index is an open-addressed
// table sized once to the history buffer (entries are purged eagerly when
// the circular buffer overwrites their slot, which bounds the index at one
// entry per buffer slot), and each engine's prediction window is a fixed
// array of at most Lookahead blocks scanned linearly. Neither the record
// path nor the replay path allocates in steady state.
package shift

import (
	"confluence/internal/flatmap"
	"confluence/internal/isa"
	"confluence/internal/prefetch"
)

// Config sizes SHIFT.
type Config struct {
	HistoryEntries int // circular history buffer entries (the paper: 32K)
	Lookahead      int // prediction window depth in blocks
}

// DefaultConfig returns the paper's tuned configuration.
func DefaultConfig() Config {
	return Config{HistoryEntries: 32 << 10, Lookahead: 20}
}

// HistoryBytes returns the LLC capacity claimed by the virtualized history
// buffer (the paper: 32K entries ≈ 204KB, ~51 bits per entry).
func (c Config) HistoryBytes() int { return c.HistoryEntries * 51 / 8 }

// IndexBytes returns the LLC tag-array extension for the index pointers
// (the paper: ~240KB across the LLC).
func (c Config) IndexBytes() int { return 240 << 10 }

// recentDepth is the depth of the record-side filter: a block already among
// the last recentDepth recorded blocks is not re-recorded. Tight loops
// alternating between a couple of blocks would otherwise flood the circular
// buffer and shrink its temporal reach to a sliver of the workload (this is
// the compaction role PIF-style filtering plays in the paper's lineage).
const recentDepth = 16

// History is the shared instruction-stream history: written by the
// generator core, read by every core's Engine.
//
// The index is a keyless open-addressed table: a slot stores only a buffer
// position, and the key of a live slot is read back from the buffer itself
// (buf[idx[slot]]) — the exact trick of SHIFT's hardware virtualization,
// where the index extends the LLC tag array with history pointers rather
// than duplicating block addresses. At 4 bytes per slot the whole 32K-entry
// index is a quarter the footprint of a keyed table.
type History struct {
	buf    []uint64 // block numbers
	head   int      // next write position
	filled bool

	idx     []int32 // history positions; -1 = empty slot
	idxMask uint64
	idxN    int

	recent [recentDepth]uint64
	rhead  int
	any    bool

	Records, Filtered uint64
}

// NewHistory creates an empty history buffer.
func NewHistory(entries int) *History {
	if entries <= 0 {
		panic("shift: history entries must be positive")
	}
	// Power-of-two slots with load factor <= 3/4 at full occupancy (the
	// eager purge in Record bounds live index entries at one per buffer
	// slot, so the table is sized once and never grows).
	slots := 16
	for 3*slots < 4*entries {
		slots *= 2
	}
	idx := make([]int32, slots)
	for i := range idx {
		idx[i] = -1
	}
	return &History{
		buf:     make([]uint64, entries),
		idx:     idx,
		idxMask: uint64(slots - 1),
	}
}

// idxFind returns the slot and position of block's index entry.
func (h *History) idxFind(block uint64) (slot uint64, pos int32, ok bool) {
	i := flatmap.Hash(block) & h.idxMask
	for h.idx[i] >= 0 {
		if p := h.idx[i]; h.buf[p] == block {
			return i, p, true
		}
		i = (i + 1) & h.idxMask
	}
	return i, 0, false
}

// idxPut points block's index entry at pos, inserting if absent.
func (h *History) idxPut(block uint64, pos int32) {
	i, _, ok := h.idxFind(block)
	if !ok {
		h.idxN++
	}
	h.idx[i] = pos
}

// idxDelete removes block's entry with backward-shift compaction (slot
// homes are recomputed from the buffer, since slots store no keys).
func (h *History) idxDelete(slot uint64) {
	h.idxN--
	i := slot
	for {
		h.idx[i] = -1
		j := i
		for {
			j = (j + 1) & h.idxMask
			p := h.idx[j]
			if p < 0 {
				return
			}
			home := flatmap.Hash(h.buf[p]) & h.idxMask
			if (j-home)&h.idxMask >= (j-i)&h.idxMask {
				break
			}
		}
		h.idx[i] = h.idx[j]
		i = j
	}
}

// Record appends a block access (block number) to the history, skipping
// blocks recorded in the recent past, and updates the index to the newest
// occurrence.
func (h *History) Record(block uint64) {
	if h.any {
		for _, r := range h.recent {
			if r == block {
				h.Filtered++
				return
			}
		}
	}
	h.any = true
	h.recent[h.rhead] = block
	h.rhead = (h.rhead + 1) % recentDepth
	if h.filled {
		// The circular buffer is overwriting an old entry: purge its index
		// pointer if it still names this slot. Eager purging keeps every
		// index entry pointer-accurate (buf[idx[slot]] is always the
		// entry's key) and bounds the index at one live entry per buffer
		// slot, which is what lets it be an open-addressed table sized once
		// at construction.
		old := h.buf[h.head]
		if slot, p, ok := h.idxFind(old); ok && int(p) == h.head {
			h.idxDelete(slot)
		}
	}
	h.buf[h.head] = block
	h.idxPut(block, int32(h.head))
	h.head++
	if h.head == len(h.buf) {
		h.head = 0
		h.filled = true
	}
	h.Records++
}

// Find returns the position of the most recent occurrence of block. The
// eager purge in Record means an entry's buffer slot always holds its key,
// so the probe itself validates against the buffer — stale pointers cannot
// exist.
func (h *History) Find(block uint64) (int, bool) {
	_, p, ok := h.idxFind(block)
	if !ok {
		return 0, false
	}
	return int(p), true
}

// Next returns the entry after pos, stopping at the write frontier.
func (h *History) Next(pos int) (block uint64, next int, ok bool) {
	np := pos + 1
	if np == len(h.buf) {
		np = 0
	}
	if np == h.head {
		return 0, pos, false
	}
	if !h.filled && np > h.head {
		return 0, pos, false
	}
	return h.buf[np], np, true
}

// Len returns the number of valid history entries.
func (h *History) Len() int {
	if h.filled {
		return len(h.buf)
	}
	return h.head
}

// IndexLen returns the number of live index entries (tests).
func (h *History) IndexLen() int { return h.idxN }

// blockTag converts an address-space base into block-number space: history
// entries are block numbers, so the tag rides ASIDShift-BlockShift bits up.
func blockTag(base isa.Addr) uint64 { return uint64(base) >> isa.BlockShift }

// blockTagMask covers the tag bits of a block number.
const blockTagMask = ^uint64(1<<(isa.ASIDShift-isa.BlockShift) - 1)

// Engine is one core's stream-replay engine over a shared History.
type Engine struct {
	cfg Config
	h   *History

	// tag is the block-number form of the engine's address-space tag: under
	// workload consolidation every history key this engine records or looks
	// up carries it, so competing workloads share the buffer's capacity
	// without aliasing. Zero (mix slot 0, and every homogeneous run) is the
	// identity: untagged keys, bit-identical to the single-workload engine.
	tag uint64

	valid bool
	pos   int
	// window holds the in-flight predictions (at most Lookahead block
	// numbers, order irrelevant) in a fixed array scanned linearly — at the
	// paper's depth of 20 a scan beats any hashed structure and allocates
	// nothing. sig is a one-word Bloom signature of the window's contents
	// (bit b&63 per member): most L1-I accesses are not window members, and
	// the signature turns that common negative membership test into a
	// single mask check. False positives just fall through to the scan.
	window []uint64
	sig    uint64

	// restartDelay models the serialized LLC metadata accesses on a stream
	// restart: index read followed by a history-buffer read.
	restartDelay float64

	StreamRestarts, IndexMisses uint64
	Issued, Confirms            uint64
}

// NewEngine creates a replay engine; metaLatency is the LLC metadata access
// latency from this core's tile (two dependent reads on restart).
func NewEngine(cfg Config, h *History, metaLatency float64) *Engine {
	return NewEngineASID(cfg, h, metaLatency, 0)
}

// NewEngineASID creates a replay engine whose history keys are tagged with
// the given address-space base (isa.ASIDBase of the core's mix slot). The
// engine follows only its own workload's records through the shared buffer,
// skipping entries written under other tags — foreign streams cost buffer
// capacity, never false predictions.
func NewEngineASID(cfg Config, h *History, metaLatency float64, base isa.Addr) *Engine {
	return &Engine{
		cfg:          cfg,
		h:            h,
		tag:          blockTag(base),
		window:       make([]uint64, 0, cfg.Lookahead),
		restartDelay: 2 * metaLatency,
	}
}

// Name implements prefetch.Prefetcher.
func (e *Engine) Name() string { return "SHIFT" }

func sigBit(b uint64) uint64 { return 1 << (b & 63) }

// inWindow returns the position of b in the window, or -1. The signature
// short-circuits the (common) negative case.
func (e *Engine) inWindow(b uint64) int {
	if e.sig&sigBit(b) == 0 {
		return -1
	}
	for i, w := range e.window {
		if w == b {
			return i
		}
	}
	return -1
}

// rebuildSig recomputes the Bloom signature after a removal (a set bit may
// have been shared with the removed member).
func (e *Engine) rebuildSig() {
	s := uint64(0)
	for _, w := range e.window {
		s |= sigBit(w)
	}
	e.sig = s
}

// OnAccess implements prefetch.Prefetcher: confirm predicted blocks and top
// up the window; restart the stream on unpredicted misses.
func (e *Engine) OnAccess(now float64, block isa.Addr, miss bool, dst []prefetch.Request) []prefetch.Request {
	b := uint64(block)>>isa.BlockShift | e.tag
	if i := e.inWindow(b); i >= 0 {
		// Unordered removal: the window is a membership set, so swapping
		// the last element in is equivalent to shifting.
		last := len(e.window) - 1
		e.window[i] = e.window[last]
		e.window = e.window[:last]
		e.rebuildSig()
		e.Confirms++
		return e.advance(0, dst)
	}
	if !miss {
		return dst
	}
	// Unpredicted miss: restart the stream at this block's last occurrence.
	e.StreamRestarts++
	p, ok := e.h.Find(b)
	if !ok {
		e.IndexMisses++
		e.valid = false
		return dst
	}
	e.valid = true
	e.pos = p
	e.window = e.window[:0]
	e.sig = 0
	return e.advance(e.restartDelay, dst)
}

// OnRegion implements prefetch.Prefetcher (SHIFT is access-driven).
func (e *Engine) OnRegion(now float64, start isa.Addr, nInstr int, dst []prefetch.Request) []prefetch.Request {
	return dst
}

// Redirect implements prefetch.Prefetcher. SHIFT's run-ahead is autonomous
// — it follows its own history stream, not the BPU — so core redirects do
// not disturb it (the paper's key timeliness argument).
func (e *Engine) Redirect(float64) {}

// advance issues stream blocks until the window holds Lookahead
// predictions, appending the requests to dst.
func (e *Engine) advance(extra float64, dst []prefetch.Request) []prefetch.Request {
	if !e.valid {
		return dst
	}
	base := len(dst)
	for len(e.window) < e.cfg.Lookahead {
		blk, np, ok := e.h.Next(e.pos)
		if !ok {
			break
		}
		e.pos = np
		if blk&blockTagMask != e.tag {
			// Another workload's stream segment: its records consume shared
			// buffer capacity but are not predictions for this core.
			continue
		}
		if e.inWindow(blk) >= 0 {
			continue
		}
		e.window = append(e.window, blk)
		e.sig |= sigBit(blk)
		dst = append(dst, prefetch.Request{
			Block:      isa.Addr(blk&^blockTagMask) << isa.BlockShift,
			ExtraDelay: extra + float64(len(dst)-base), // serialized issue
		})
		e.Issued++
	}
	return dst
}

// WindowSize returns the current prediction window occupancy (tests).
func (e *Engine) WindowSize() int { return len(e.window) }
