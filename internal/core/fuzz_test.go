package core

import (
	"context"
	"testing"

	"confluence/internal/trace"
)

// FuzzRestoreWarmSnapshot feeds warm-snapshot restore corrupt payloads:
// a payload that does not describe the system's warm state must fail
// closed with an error from RestoreWarmSnapshot, never a panic, neither
// in restore nor in the simulation that follows a successful one. The
// seeds are real snapshots of a Confluence and a PhantomBTB+FDP system
// plus truncations of them; the second argument picks the system to
// restore into, so a snapshot also meets the other design's system.
func FuzzRestoreWarmSnapshot(f *testing.F) {
	w := testWorkload(f)
	designs := []DesignPoint{Confluence, PhantomFDP}
	// Finite per-core streams bound SkipRecords: a corrupt consumed count
	// runs its core dry instead of skipping for as long as it claims.
	opt := smallOpts()
	recs := make([][]trace.Record, opt.Cores)
	for c := range recs {
		src, err := trace.RecordFrom(trace.NewExecutor(w, trace.CoreSeed(w.Prof.Seed, c)), 20_000)
		if err != nil {
			f.Fatal(err)
		}
		recs[c] = src.Recs
	}
	opt.Sources = func(c int) (trace.Source, error) { return trace.NewMemSource(recs[c], false), nil }
	ctx := context.Background()
	for i, dp := range designs {
		sys, err := NewSystem(w, dp, opt)
		if err != nil {
			f.Fatal(err)
		}
		if err := sys.FastForward(ctx, 20_000); err != nil {
			f.Fatal(err)
		}
		snap, err := sys.WarmSnapshot()
		if err != nil {
			f.Fatal(err)
		}
		sys.Close()
		for _, n := range []int{len(snap), len(snap) - 1, len(snap) / 2, 64, 0} {
			f.Add(snap[:n], uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, design uint8) {
		sys, err := NewSystem(w, designs[int(design)%len(designs)], opt)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if sys.RestoreWarmSnapshot(ctx, data) != nil {
			return
		}
		// A snapshot that restores must also simulate: state no live run
		// can reach (an overfull cache set, a history position past the
		// buffer) fails restore rather than a later step. The run may
		// still end in an error when a fuzzed consumed count leaves a
		// finite stream too short.
		_, _ = sys.RunCtx(ctx, 0, 2_000)
	})
}
