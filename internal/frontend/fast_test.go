package frontend

import (
	"reflect"
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

func TestFFCountsAddSub(t *testing.T) {
	a := FFCounts{Instructions: 10, L1IAccesses: 8, L1IMisses: 3, BTBTakenLookups: 4, BTBMisses: 2}
	b := FFCounts{Instructions: 1, L1IAccesses: 2, L1IMisses: 1, BTBTakenLookups: 1, BTBMisses: 1}
	sum := a
	sum.Add(&b)
	want := FFCounts{Instructions: 11, L1IAccesses: 10, L1IMisses: 4, BTBTakenLookups: 5, BTBMisses: 3}
	if sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
	sum.Sub(&b)
	if sum != a {
		t.Errorf("Sub did not invert Add: %+v", sum)
	}
}

// mixedRecords builds a looping source exercising every branch kind the
// fast-forward path handles: conditionals (taken and not), calls paired
// with returns, unconditional jumps, and indirects — across a footprint
// larger than the L1-I so misses, fills, and evictions all occur.
func mixedRecords(nBlocks int) *trace.MemSource {
	var recs []trace.Record
	base := isa.Addr(0x40000)
	const n = int(isa.BlockBytes / isa.InstrBytes) // one full block per record
	for i := 0; i < nBlocks; i++ {
		start := base + isa.Addr(i)*isa.BlockBytes
		next := start + isa.BlockBytes
		if i == nBlocks-1 {
			next = base
		}
		brPC := start + isa.Addr(n-1)*isa.InstrBytes
		var br trace.BranchInfo
		switch i % 5 {
		case 0:
			// Taken and not-taken conditionals; the target equals the
			// fall-through so the stream stays self-consistent either way.
			br = trace.BranchInfo{PC: brPC, Kind: isa.BrCond, Taken: i%2 == 0, Target: next}
		case 1:
			br = trace.BranchInfo{PC: brPC, Kind: isa.BrCall, Taken: true, Target: next}
		case 2:
			br = trace.BranchInfo{PC: brPC, Kind: isa.BrRet, Taken: true, Target: next}
		case 3:
			br = trace.BranchInfo{PC: brPC, Kind: isa.BrIndirect, Taken: true, Target: next}
		case 4:
			br = trace.BranchInfo{PC: brPC, Kind: isa.BrUncond, Taken: true, Target: next}
		}
		recs = append(recs, trace.Record{Start: start, N: n, Br: br, Next: next})
	}
	return trace.NewMemSource(recs, true)
}

// TestFastStepMatchesStepEvents pins the full-coverage contract from the
// sampled mode: on a prefetcherless core, the functional fast-forward
// path issues the exact probe sequence detailed simulation would, so its
// FFCounts tallies equal the detailed path's Stats counters event for
// event — same stream, same contents, same misses.
func TestFastStepMatchesStepEvents(t *testing.T) {
	det := NewCore(testConfig())
	fast := NewCore(testConfig())
	srcD := mixedRecords(1024) // 64KB of code vs the 32KB L1-I
	srcF := mixedRecords(1024)
	var rd, rf trace.Record
	for i := 0; i < 30_000; i++ {
		srcD.Next(&rd)
		det.Step(&rd)
		srcF.Next(&rf)
		fast.FastStep(&rf)
	}
	st := det.Stats()
	ff := fast.FFCounts()
	if ff.Instructions != st.Instructions {
		t.Errorf("instructions: fast %d, detailed %d", ff.Instructions, st.Instructions)
	}
	if ff.L1IAccesses != st.L1IAccesses || ff.L1IMisses != st.L1IMisses {
		t.Errorf("L1-I events diverged: fast %d/%d, detailed %d/%d",
			ff.L1IAccesses, ff.L1IMisses, st.L1IAccesses, st.L1IMisses)
	}
	if ff.BTBTakenLookups != st.BTBTakenLookups || ff.BTBMisses != st.BTBMisses {
		t.Errorf("BTB events diverged: fast %d/%d, detailed %d/%d",
			ff.BTBTakenLookups, ff.BTBMisses, st.BTBTakenLookups, st.BTBMisses)
	}
	if ff.L1IMisses == 0 || ff.BTBMisses == 0 {
		t.Error("stream produced no misses; the comparison is vacuous")
	}
	// Fast-forward moves no measurement counters.
	if got := fast.Stats().Instructions; got != 0 {
		t.Errorf("FastStep moved Stats.Instructions to %d", got)
	}
}

func TestWarmStateRoundTrip(t *testing.T) {
	a := NewCore(testConfig())
	src := mixedRecords(512)
	var rec trace.Record
	for i := 0; i < 5_000; i++ {
		src.Next(&rec)
		a.FastStep(&rec)
	}
	st := a.ExportWarmState()
	if st.L1I == nil || st.Cycle == 0 {
		t.Fatal("warm-up produced an empty snapshot")
	}

	b := NewCore(testConfig())
	if err := b.RestoreWarmState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.ExportWarmState(), st) {
		t.Error("re-exported warm state differs from the snapshot")
	}
	// The restored core must walk on identically: driving both with the
	// same continuation produces identical probe-event deltas (BTB
	// contents are design-managed and cold on both sides here, so the
	// remaining state fully determines the probe stream).
	aBase, bBase := a.FFCounts(), b.FFCounts()
	for i := 0; i < 1_000; i++ {
		src.Next(&rec)
		a.FastStep(&rec)
		b.FastStep(&rec)
	}
	af, bf := a.FFCounts(), b.FFCounts()
	af.Sub(&aBase)
	bf.Sub(&bBase)
	if af != bf {
		t.Errorf("post-restore probe deltas diverged: %+v vs %+v", af, bf)
	}
	if bf.Instructions == 0 {
		t.Error("restored core did not advance")
	}

	// Presence mismatch: a PerfectL1I core carries no L1-I state.
	cfg := testConfig()
	cfg.PerfectL1I = true
	if err := NewCore(cfg).RestoreWarmState(st); err == nil {
		t.Error("restore into a PerfectL1I core succeeded")
	}
}

// TestDeferFFRecyclesLogBuffer: a log attached to one core, filled, and
// then attached to another starts empty but keeps its grown buffer, so
// logs handed from core to core and from system to system (a sweep's
// cells) are not regrown per chunk; detaching makes FastStep apply its
// writes directly again.
func TestDeferFFRecyclesLogBuffer(t *testing.T) {
	a, b := NewCore(testConfig()), NewCore(testConfig())
	var l FFLog
	a.DeferFF(&l)
	src := mixedRecords(64)
	var rec trace.Record
	for i := 0; i < 256; i++ {
		src.Next(&rec)
		a.FastStep(&rec)
	}
	grown := cap(l.ops)
	if grown == 0 || l.Rounds() != 256 {
		t.Fatalf("logging core logged %d ops over %d rounds, want some over 256", len(l.ops), l.Rounds())
	}
	a.DeferFF(nil)
	b.DeferFF(&l)
	if len(l.ops) != 0 || l.Rounds() != 0 || cap(l.ops) != grown {
		t.Errorf("reattached log holds %d ops, %d rounds, capacity %d; want empty with the recycled capacity %d",
			len(l.ops), l.Rounds(), cap(l.ops), grown)
	}
	b.DeferFF(nil)
	src.Next(&rec)
	a.FastStep(&rec)
	if len(l.ops) != 0 {
		t.Error("detached log still received writes")
	}
}
