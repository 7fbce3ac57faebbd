package shift

import (
	"testing"

	"confluence/internal/isa"
)

func TestHistoryRecordAndFind(t *testing.T) {
	h := NewHistory(64)
	for b := uint64(1); b <= 5; b++ {
		h.Record(b)
	}
	for b := uint64(1); b <= 5; b++ {
		if _, ok := h.Find(b); !ok {
			t.Errorf("block %d not found", b)
		}
	}
	if _, ok := h.Find(99); ok {
		t.Error("unknown block found")
	}
	if h.Len() != 5 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHistoryRecentFilter(t *testing.T) {
	h := NewHistory(64)
	h.Record(1)
	h.Record(2)
	h.Record(1) // within the recent window: filtered
	if h.Records != 2 {
		t.Errorf("Records = %d, want 2 (alternation filtered)", h.Records)
	}
	if h.Filtered != 1 {
		t.Errorf("Filtered = %d", h.Filtered)
	}
	// After enough distinct blocks, the same block records again.
	for b := uint64(10); b < 10+recentDepth; b++ {
		h.Record(b)
	}
	before := h.Records
	h.Record(1)
	if h.Records != before+1 {
		t.Error("block outside the recent window was filtered")
	}
}

func TestHistoryReplaySequence(t *testing.T) {
	h := NewHistory(128)
	seq := []uint64{10, 20, 30, 40, 50}
	for _, b := range seq {
		h.Record(b)
	}
	pos, ok := h.Find(10)
	if !ok {
		t.Fatal("head of stream not indexed")
	}
	for _, want := range seq[1:] {
		blk, np, ok := h.Next(pos)
		if !ok || blk != want {
			t.Fatalf("Next = %d, %v; want %d", blk, ok, want)
		}
		pos = np
	}
	// The stream stops at the write frontier.
	if _, _, ok := h.Next(pos); ok {
		t.Error("read past the write frontier")
	}
}

func TestHistoryWrapInvalidatesStaleIndex(t *testing.T) {
	h := NewHistory(4)
	for b := uint64(1); b <= 6; b++ { // wraps, overwriting blocks 1 and 2
		h.Record(b)
	}
	if _, ok := h.Find(1); ok {
		t.Error("stale index entry served after overwrite")
	}
	if _, ok := h.Find(5); !ok {
		t.Error("recent entry lost")
	}
	if h.Len() != 4 {
		t.Errorf("Len = %d after wrap", h.Len())
	}
}

func TestEngineReplaysStream(t *testing.T) {
	h := NewHistory(256)
	// Generator observed blocks 100..120.
	for b := uint64(100); b <= 120; b++ {
		h.Record(b)
	}
	e := NewEngine(Config{HistoryEntries: 256, Lookahead: 4}, h, 10)
	// A miss on block 100 restarts the stream there.
	reqs := e.OnAccess(0, isa.Addr(100)<<isa.BlockShift, true, nil)
	if len(reqs) != 4 {
		t.Fatalf("issued %d prefetches, want lookahead=4", len(reqs))
	}
	for i, r := range reqs {
		if uint64(r.Block)>>isa.BlockShift != uint64(101+i) {
			t.Errorf("prefetch %d = block %d, want %d", i, r.Block>>isa.BlockShift, 101+i)
		}
		if r.ExtraDelay < 20 { // 2 * metaLatency restart cost
			t.Errorf("restart prefetch %d has delay %v, want >= 20", i, r.ExtraDelay)
		}
	}
	if e.StreamRestarts != 1 {
		t.Errorf("StreamRestarts = %d", e.StreamRestarts)
	}
	// Confirming the first prediction advances the window by one.
	more := e.OnAccess(1, isa.Addr(101)<<isa.BlockShift, false, nil)
	if len(more) != 1 || uint64(more[0].Block)>>isa.BlockShift != 105 {
		t.Fatalf("confirmation advance: %+v", more)
	}
	if more[0].ExtraDelay >= 20 {
		t.Error("steady-state prefetch should not pay the restart delay")
	}
	if e.Confirms != 1 {
		t.Errorf("Confirms = %d", e.Confirms)
	}
}

func TestEngineIndexMiss(t *testing.T) {
	h := NewHistory(64)
	e := NewEngine(Config{HistoryEntries: 64, Lookahead: 4}, h, 10)
	if reqs := e.OnAccess(0, 0x4000, true, nil); reqs != nil {
		t.Errorf("prefetches without history: %v", reqs)
	}
	if e.IndexMisses != 1 {
		t.Errorf("IndexMisses = %d", e.IndexMisses)
	}
}

func TestEngineHitWithoutWindowDoesNothing(t *testing.T) {
	h := NewHistory(64)
	h.Record(5)
	e := NewEngine(Config{HistoryEntries: 64, Lookahead: 4}, h, 10)
	if reqs := e.OnAccess(0, isa.Addr(5)<<isa.BlockShift, false, nil); reqs != nil {
		t.Error("an L1-I hit must not restart the stream")
	}
}

func TestEngineRestartClearsWindow(t *testing.T) {
	h := NewHistory(256)
	for b := uint64(100); b <= 140; b++ {
		h.Record(b)
	}
	e := NewEngine(Config{HistoryEntries: 256, Lookahead: 4}, h, 10)
	e.OnAccess(0, isa.Addr(100)<<isa.BlockShift, true, nil)
	if e.WindowSize() != 4 {
		t.Fatalf("window = %d", e.WindowSize())
	}
	// Divergence: a miss on an unpredicted block restarts elsewhere.
	e.OnAccess(1, isa.Addr(130)<<isa.BlockShift, true, nil)
	if e.WindowSize() != 4 {
		t.Errorf("window = %d after restart", e.WindowSize())
	}
	// The old window must be gone: confirming 101 now does nothing.
	if reqs := e.OnAccess(2, isa.Addr(101)<<isa.BlockShift, false, nil); reqs != nil {
		t.Error("stale window entry confirmed after restart")
	}
}

func TestEngineRedirectIsIgnored(t *testing.T) {
	h := NewHistory(256)
	for b := uint64(100); b <= 120; b++ {
		h.Record(b)
	}
	e := NewEngine(Config{HistoryEntries: 256, Lookahead: 4}, h, 10)
	e.OnAccess(0, isa.Addr(100)<<isa.BlockShift, true, nil)
	w := e.WindowSize()
	e.Redirect(5) // SHIFT is autonomous: core redirects must not disturb it
	if e.WindowSize() != w {
		t.Error("Redirect disturbed the stream engine")
	}
}

func TestConfigBytes(t *testing.T) {
	c := DefaultConfig()
	kb := c.HistoryBytes() >> 10
	if kb < 190 || kb > 215 {
		t.Errorf("history = %d KB, paper says ~204", kb)
	}
	if c.IndexBytes() != 240<<10 {
		t.Errorf("index = %d", c.IndexBytes())
	}
}

func TestNewHistoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty history")
		}
	}()
	NewHistory(0)
}

// TestEngineASIDIsolation covers the consolidation contract: two engines
// with different address-space tags share one history buffer without
// cross-predicting — each follows only its own workload's records, skipping
// foreign stream segments, and emits untagged block addresses.
func TestEngineASIDIsolation(t *testing.T) {
	h := NewHistory(256)
	tagA := isa.ASIDBase(0)
	tagB := isa.ASIDBase(1)
	// Two interleaved generator streams: workload A records blocks 100..107,
	// workload B records 100..107 of its own address space (the same raw
	// block numbers — the aliasing case consolidation must not confuse).
	for b := uint64(100); b <= 107; b++ {
		h.Record(b | blockTag(tagA))
		h.Record(b | blockTag(tagB))
	}

	eA := NewEngineASID(Config{HistoryEntries: 256, Lookahead: 4}, h, 10, tagA)
	eB := NewEngineASID(Config{HistoryEntries: 256, Lookahead: 4}, h, 10, tagB)

	reqsA := eA.OnAccess(0, isa.Addr(100)<<isa.BlockShift, true, nil)
	if len(reqsA) != 4 {
		t.Fatalf("engine A issued %d prefetches, want 4", len(reqsA))
	}
	for i, r := range reqsA {
		want := isa.Addr(101+i) << isa.BlockShift
		if r.Block != want {
			t.Errorf("engine A prefetch %d = %#x, want untagged %#x", i, uint64(r.Block), uint64(want))
		}
	}
	// Engine B restarts at its own occurrence of "block 100" and must see
	// only B-tagged successors, emitted untagged.
	reqsB := eB.OnAccess(0, isa.Addr(100)<<isa.BlockShift, true, nil)
	if len(reqsB) != 4 {
		t.Fatalf("engine B issued %d prefetches, want 4", len(reqsB))
	}
	for i, r := range reqsB {
		want := isa.Addr(101+i) << isa.BlockShift
		if r.Block != want {
			t.Errorf("engine B prefetch %d = %#x, want untagged %#x", i, uint64(r.Block), uint64(want))
		}
	}
	if eA.IndexMisses != 0 || eB.IndexMisses != 0 {
		t.Errorf("index misses: A=%d B=%d, want 0", eA.IndexMisses, eB.IndexMisses)
	}

	// An untagged third engine probing the same raw block must miss the
	// index entirely: its keys carry tag 0... which is tagA here. Probe a
	// block recorded by neither tag instead.
	if reqs := eA.OnAccess(1, isa.Addr(500)<<isa.BlockShift, true, nil); len(reqs) != 0 {
		t.Errorf("unrecorded block produced prefetches: %v", reqs)
	}
	if eA.IndexMisses != 1 {
		t.Errorf("IndexMisses = %d, want 1", eA.IndexMisses)
	}
}
