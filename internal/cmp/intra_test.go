package cmp

import (
	"context"
	"fmt"
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

// intraSystem builds testSystem-shaped systems with an intra configuration.
func intraSystem(t *testing.T, cores, workers, epoch int) *System {
	t.Helper()
	sys := testSystem(t, cores)
	sys.SetIntra(workers, epoch)
	return sys
}

// TestIntraExactIdentity: at K=1 the engine must be bit-identical to the
// serial simulator for any worker count, at the cmp layer too.
func TestIntraExactIdentity(t *testing.T) {
	serial := mustRun(t, intraSystem(t, 3, 1, 1), 10_000, 30_000)
	for _, workers := range []int{2, 8} {
		got := mustRun(t, intraSystem(t, 3, workers, 1), 10_000, 30_000)
		if *serial != *got {
			t.Errorf("workers=%d diverged from serial:\n serial %+v\n got    %+v", workers, *serial, *got)
		}
	}
}

// TestIntraBoundDeterminism: at K>1 the approximation is bit-deterministic
// across worker counts.
func TestIntraBoundDeterminism(t *testing.T) {
	one := mustRun(t, intraSystem(t, 3, 1, 8), 10_000, 30_000)
	for _, workers := range []int{2, 8} {
		got := mustRun(t, intraSystem(t, 3, workers, 8), 10_000, 30_000)
		if *one != *got {
			t.Errorf("K=8 workers=%d diverged from K=8 workers=1", workers)
		}
	}
}

// TestIntraSourceErrors: a finite source exhausting mid-run must abort the
// run in every engine mode, and decode-ahead must not surface an EOF the
// serial simulator would never have needed.
func TestIntraSourceErrors(t *testing.T) {
	for _, mode := range []struct {
		name           string
		workers, epoch int
		sufficient     bool
	}{
		{"exact-exhausted", 2, 1, false},
		{"bound-exhausted", 2, 8, false},
		// A target inside the finite source's budget must run clean: the
		// EOF that decode-ahead (batch 64) reaches beyond the target stays
		// invisible, exactly as in the serial simulator.
		{"exact-sufficient", 2, 1, true},
		{"bound-sufficient", 2, 8, true},
	} {
		sys := intraSystem(t, 2, mode.workers, mode.epoch)
		live := sys.Sources[0]
		short, err := trace.RecordFrom(live, 50)
		if err != nil {
			t.Fatal(err)
		}
		var budget uint64
		for _, r := range short.Recs {
			budget += uint64(r.N)
		}
		short.Loop = false
		if err := short.Reset(); err != nil {
			t.Fatal(err)
		}
		sys.Sources[0] = short
		instr := budget * 4 // overshoots the finite source
		if mode.sufficient {
			instr = budget / 2
		}
		_, err = sys.Run(0, instr)
		if !mode.sufficient && err == nil {
			t.Errorf("%s: exhausted source did not fail the run", mode.name)
		}
		if mode.sufficient && err != nil {
			t.Errorf("%s: in-bounds run failed: %v", mode.name, err)
		}
	}
}

// makeStragglerRecords builds a looping block stream advancing n
// instructions per record over a fixed 256-block footprint.
func makeStragglerRecords(n int) []trace.Record {
	const blocks = 256
	recs := make([]trace.Record, blocks)
	base := isa.Addr(0x40000)
	for i := range recs {
		start := base + isa.Addr(i)*isa.BlockBytes
		next := base + isa.Addr((i+1)%blocks)*isa.BlockBytes
		recs[i] = trace.Record{Start: start, N: n, Next: next}
	}
	return recs
}

// stragglerSystem builds a CMP where core 0 advances 4 instructions per
// block while every other core advances 32: the fast cores hit the phase
// target early and core 0 straggles for ~8x as many rounds.
func stragglerSystem(b *testing.B, cores int) *System {
	b.Helper()
	sys := testSystem(b, cores)
	for i := range sys.Sources {
		n := 32
		if i == 0 {
			n = 4
		}
		sys.Sources[i] = trace.NewMemSource(makeStragglerRecords(n), true)
	}
	return sys
}

// BenchmarkPhaseStraggler measures the phase loop's straggler overhead: the
// compacted active-core list drops finished cores, so a lone straggler
// costs O(1) per block instead of O(cores) re-checks per turn.
func BenchmarkPhaseStraggler(b *testing.B) {
	sys := stragglerSystem(b, 16)
	if _, err := sys.Run(0, 10_000); err != nil { // prime caches & engine
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(0, 50_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastForward measures the functional fast-forward phase of a
// 4-core system at one and two fast-forward workers: the path sampled
// mode spends most of its time in.
func BenchmarkFastForward(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sys := testSystem(b, 4)
			sys.SetIntra(workers, 1)
			ctx := context.Background()
			if err := sys.FastForward(ctx, 100_000); err != nil { // prime caches & engine
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.FastForward(ctx, 200_000); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*4*200_000/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkDetailed measures an exact detailed phase of a 4-core system,
// Step's stream half pipelined on stage goroutines ahead of the weave.
func BenchmarkDetailed(b *testing.B) {
	sys := testSystem(b, 4)
	defer sys.Close()
	if _, err := sys.Run(0, 100_000); err != nil { // prime caches & engine
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(0, 200_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*4*200_000/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
