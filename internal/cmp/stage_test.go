package cmp

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// serialDetailed is the reference schedule the pipelined detailed phase
// must reproduce: every core below target takes one full Core.Step per
// round, in core order, from its decode queue.
func serialDetailed(t *testing.T, s *System, n uint64) {
	t.Helper()
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	e := s.eng
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
			core.Step(rec)
			q.head++
			q.n--
			pg.instr += uint64(rec.N)
			pg.recs++
			live = true
		}
	}
}

// TestStagedDrySourceMatchesSerial: a finite source running dry in the
// middle of a detailed phase fails it with the serial schedule's error —
// the core dry in the earliest round, the lowest such core on a tie —
// including when a stage's batch ends exactly at the end of the source.
// A target inside every finite budget runs clean, although the stages
// decode up to the end of the sources.
func TestStagedDrySourceMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		lens []int
		want string
	}{
		// Core 3 runs dry first although core 1 is the lower index.
		{[]int{0, 900, 0, 300}, "cmp: core 3 source: EOF"},
		{[]int{0, 300, 0, 300}, "cmp: core 1 source: EOF"},
		{[]int{0, 4 * stageBatchRecs, 0, 4*stageBatchRecs + 1}, "cmp: core 1 source: EOF"},
		{[]int{0, 6*stageBatchRecs + 700, 0, 6*stageBatchRecs + 200}, "cmp: core 3 source: EOF"},
	} {
		sys := testSystem(t, 4)
		finiteSources(t, sys, tc.lens)
		if _, err := sys.RunCtx(context.Background(), 0, 1<<40); err == nil || err.Error() != tc.want {
			t.Errorf("lens %v: got error %v, want %q", tc.lens, err, tc.want)
		}
		sys.Close()
	}

	sys := testSystem(t, 4)
	defer sys.Close()
	finiteSources(t, sys, []int{0, 900, 0, 300})
	if _, err := sys.Run(300, 300); err != nil {
		t.Errorf("in-bounds run failed: %v", err)
	}
}

// TestStagedCancel: cancelling mid-phase returns ctx.Err() within a few
// batches of the cancellation, with every stage joined.
func TestStagedCancel(t *testing.T) {
	const at = 2*stageBatchRecs + 100
	sys := testSystem(t, 4)
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys.Sources[0] = &cancelAfter{Source: sys.Sources[0], n: at, cancel: cancel}
	if _, err := sys.RunCtx(ctx, 0, 1<<40); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	for c, n := range sys.ConsumedRecords() {
		if n > at+stageBatches*stageBatchRecs {
			t.Errorf("core %d stepped %d records, cancelled after %d", c, n, at)
		}
	}
}

// TestStagedPhasesMatchSerial: pipelined detailed phases leave exactly
// the serial schedule's state across a sequence of phases of every kind —
// detailed phases shorter and longer than a batch, fast-forward, and
// skipped records — which all resume from the records a stage decoded
// beyond its target.
func TestStagedPhasesMatchSerial(t *testing.T) {
	run := func(serial bool) ([]uint64, []any) {
		sys := testSystem(t, 3)
		defer sys.Close()
		sys.eng = newEngine(sys)
		ctx := context.Background()
		var out []any
		for _, n := range []uint64{700, 3 * stageBatchRecs * 5, 10} {
			if serial {
				serialDetailed(t, sys, n)
			} else if err := sys.phase(ctx, n); err != nil {
				t.Fatal(err)
			}
			for _, c := range sys.Cores {
				out = append(out, *c.Stats(), c.ExportWarmState())
			}
			if err := sys.FastForward(ctx, 2000); err != nil {
				t.Fatal(err)
			}
			if err := sys.SkipRecords(ctx, []uint64{5, 0, 70}); err != nil {
				t.Fatal(err)
			}
		}
		return sys.ConsumedRecords(), out
	}
	wantRecs, want := run(true)
	gotRecs, got := run(false)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("state %d differs between pipelined and serial phases", i)
		}
	}
	for c := range wantRecs {
		if gotRecs[c] != wantRecs[c] {
			t.Errorf("core %d consumed %d records pipelined, %d serially", c, gotRecs[c], wantRecs[c])
		}
	}
}
