package cmp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"confluence/internal/cache"
	"confluence/internal/frontend"
	"confluence/internal/shift"
	"confluence/internal/trace"
)

// finiteSources replaces core c's source with a non-looping prefix of
// lens[c] records of its own stream (lens[c] == 0 leaves it live).
func finiteSources(t *testing.T, sys *System, lens []int) {
	t.Helper()
	for c, n := range lens {
		if n == 0 {
			continue
		}
		short, err := trace.RecordFrom(sys.Sources[c], n)
		if err != nil {
			t.Fatal(err)
		}
		short.Loop = false
		if err := short.Reset(); err != nil {
			t.Fatal(err)
		}
		sys.Sources[c] = short
	}
}

// TestFastForwardDrySourceMatchesSerial: a finite source running dry
// mid-fast-forward fails the phase with the serial schedule's error — the
// core that ran dry in the earliest round, the lowest such core on a tie —
// at every worker count, across chunk boundaries too. A core that reaches
// its target before its source runs out never fails.
func TestFastForwardDrySourceMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		lens []int
		want string
	}{
		// Core 3 runs dry first although core 1 is the lower index.
		{"earliest-round", []int{0, 900, 0, 300}, "cmp: core 3 source: EOF"},
		{"tie-lowest-core", []int{0, 300, 0, 300}, "cmp: core 1 source: EOF"},
		// Both run dry in the second chunk.
		{"later-chunk", []int{0, ffChunkRounds + 700, 0, ffChunkRounds + 200}, "cmp: core 3 source: EOF"},
	} {
		for _, workers := range []int{1, 2, 4} {
			sys := testSystem(t, 4)
			sys.SetIntra(workers, 1)
			finiteSources(t, sys, tc.lens)
			err := sys.FastForward(context.Background(), 1_000_000)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, workers=%d: got error %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}

	// Targets inside every finite budget run clean: the EOF decode-ahead
	// reaches stays invisible.
	for _, workers := range []int{1, 4} {
		sys := testSystem(t, 4)
		sys.SetIntra(workers, 1)
		finiteSources(t, sys, []int{0, 900, 0, 300})
		if err := sys.FastForward(context.Background(), 300); err != nil {
			t.Errorf("workers=%d: in-bounds fast-forward failed: %v", workers, err)
		}
	}
}

// cancelAfter is a source that cancels a context once it has delivered n
// records.
type cancelAfter struct {
	trace.Source
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfter) NextBatch(dst []trace.Record) (int, error) {
	k, err := s.Source.NextBatch(dst)
	if s.n -= k; s.n <= 0 {
		s.cancel()
	}
	return k, err
}

// TestFastForwardCancelWithinChunk: cancelling mid-fast-forward returns
// ctx.Err() at the next chunk barrier, so no core steps more than one
// chunk past the point of cancellation.
func TestFastForwardCancelWithinChunk(t *testing.T) {
	const at = ffChunkRounds + 100 // inside the second chunk
	for _, workers := range []int{1, 4} {
		sys := testSystem(t, 4)
		sys.SetIntra(workers, 1)
		ctx, cancel := context.WithCancel(context.Background())
		sys.Sources[0] = &cancelAfter{Source: sys.Sources[0], n: at, cancel: cancel}
		err := sys.FastForward(ctx, 1<<40)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		for c, n := range sys.ConsumedRecords() {
			if n > 2*ffChunkRounds {
				t.Errorf("workers=%d: core %d stepped %d records, more than the chunk cancellation landed in", workers, c, n)
			}
		}
	}
}

// historySystem is testSystem with two generator cores recording into one
// shared SHIFT history, so the replay order of history records matters as
// much as that of LLC touches.
func historySystem(t *testing.T, cores int) (*System, *shift.History) {
	t.Helper()
	sys := testSystem(t, cores)
	h := shift.NewHistory(4096)
	sys.Cores[0].SetRecorder(h)
	sys.Cores[1].SetRecorder(h)
	return sys, h
}

// serialFastForward is the reference schedule chunked fast-forward must
// reproduce: every core below target steps once per round, in core
// order, with FastStep applying its shared-state writes directly.
func serialFastForward(t *testing.T, s *System, n uint64) {
	t.Helper()
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	e := s.eng
	for _, c := range s.Cores {
		c.DeferFF(false)
	}
	target := make([]uint64, len(s.Cores))
	for c := range target {
		target[c] = e.prog[c].instr + n
	}
	for live := true; live; {
		live = false
		for c, core := range s.Cores {
			pg, q := &e.prog[c], &e.q[c]
			if pg.instr >= target[c] {
				continue
			}
			if q.n == 0 {
				if e.refill(c); q.n == 0 {
					t.Fatal(e.dryErr(c))
				}
			}
			rec := &q.buf[q.head]
			core.FastStep(rec)
			q.head++
			q.n--
			pg.instr += uint64(rec.N)
			pg.recs++
			live = true
		}
	}
}

// TestChunkedFastForwardMatchesSerialSchedule: at every worker count,
// chunked fast-forward leaves exactly the state the serial round-robin
// schedule leaves — every core's warm state, the LLC, the shared history,
// the stream positions — and the detailed run that follows measures
// identically.
func TestChunkedFastForwardMatchesSerialSchedule(t *testing.T) {
	const n = 3 * ffChunkRounds * 4 // several chunks of short blocks
	type state struct {
		cores    []frontend.CoreWarmState
		llc      cache.CacheState
		hist     shift.HistoryState
		consumed []uint64
		after    frontend.Stats // a detailed run following the fast-forward
	}
	capture := func(sys *System, h *shift.History) state {
		var st state
		for _, c := range sys.Cores {
			st.cores = append(st.cores, c.ExportWarmState())
		}
		st.llc, st.hist, st.consumed = sys.Hier.ExportLLCState(), h.ExportState(), sys.ConsumedRecords()
		st.after = *mustRun(t, sys, 0, 20_000)
		return st
	}
	ref, refHist := historySystem(t, 4)
	serialFastForward(t, ref, n)
	want := capture(ref, refHist)
	for _, workers := range []int{1, 2, 4} {
		sys, hist := historySystem(t, 4)
		sys.SetIntra(workers, 1)
		if err := sys.FastForward(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		got := capture(sys, hist)
		for c := range got.cores {
			if !reflect.DeepEqual(got.cores[c], want.cores[c]) {
				t.Errorf("workers=%d: core %d warm state differs from the serial schedule", workers, c)
			}
		}
		if !reflect.DeepEqual(got.llc, want.llc) {
			t.Errorf("workers=%d: LLC differs from the serial schedule", workers)
		}
		if !reflect.DeepEqual(got.hist, want.hist) {
			t.Errorf("workers=%d: shared history differs from the serial schedule", workers)
		}
		if !reflect.DeepEqual(got.consumed, want.consumed) {
			t.Errorf("workers=%d: stream positions differ from the serial schedule", workers)
		}
		if got.after != want.after {
			t.Errorf("workers=%d: detailed run after fast-forward differs from the serial schedule", workers)
		}
	}
}
