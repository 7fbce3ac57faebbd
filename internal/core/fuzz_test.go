package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"confluence/internal/airbtb"
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
		if dp != Confluence {
			continue
		}
		// Overflow buffers no live run leaves — a PC held twice, a stamp
		// used twice — decode cleanly, so only restore can reject them.
		for _, edit := range []func(*airbtb.State){
			func(st *airbtb.State) { st.OverflowPCs[1] = st.OverflowPCs[0] },
			func(st *airbtb.State) { st.OverflowStamp[1] = st.OverflowStamp[0] },
		} {
			bad := editAirBTB(f, snap, edit)
			sys, err := NewSystem(w, dp, opt)
			if err != nil {
				f.Fatal(err)
			}
			if sys.RestoreWarmSnapshot(ctx, bad) == nil {
				f.Fatal("a snapshot with an inconsistent AirBTB overflow buffer restored")
			}
			sys.Close()
			f.Add(bad, uint8(i))
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

// editAirBTB re-encodes snap with edit applied to core 0's AirBTB state,
// whose overflow buffer must hold at least two entries.
func editAirBTB(f *testing.F, snap []byte, edit func(*airbtb.State)) []byte {
	var ws warmSnapshot
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&ws); err != nil {
		f.Fatal(err)
	}
	st, ok := ws.Cores[0].BTB.(airbtb.State)
	if !ok || len(st.OverflowPCs) < 2 {
		f.Fatalf("core 0 carries BTB state %T with too few overflow entries to corrupt", ws.Cores[0].BTB)
	}
	edit(&st)
	ws.Cores[0].BTB = st
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ws); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
