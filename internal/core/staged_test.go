package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"confluence/internal/airbtb"
	"confluence/internal/btb"
	"confluence/internal/frontend"
	"confluence/internal/isa"
	"confluence/internal/phantom"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// stagedCell is everything one cell produces on both paths a system can
// take: an exact warm-up + measurement (detailed phases only), and a
// sampled run — a fast-forwarded warm-up, its snapshot, then windows.
type stagedCell struct {
	exact        *frontend.Stats
	exactPerCore []*frontend.Stats
	sampled      sampledCell
}

func runStagedCell(t *testing.T, mix []*synth.Workload, dp DesignPoint, workers int) stagedCell {
	t.Helper()
	opt := DefaultOptions()
	opt.Cores = 4
	sys, err := NewMixSystem(mix, dp, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.SetIntra(workers)
	var c stagedCell
	// Phases of several pipeline batches per core, so batch boundaries,
	// phase boundaries and records decoded past a target all occur.
	if c.exact, err = sys.RunCtx(context.Background(), 15_000, 25_000); err != nil {
		t.Fatal(err)
	}
	c.exactPerCore = sys.PerCoreSnapshot()
	c.sampled = runSampledCell(t, mix, dp, workers)
	return c
}

// TestStagedMatchesAcrossSchedules: how the stage goroutines that run
// Step's stream half are scheduled against the weave is invisible in
// every result — exact stats and per-core stats, sampled windows,
// coverage and warm-snapshot bytes — at GOMAXPROCS 1, 2 and 4 and SetIntra
// bounds 0 and 1. (TestGoldenStats pins the results themselves to
// the serial simulator's.) The designs cover BTBs the stream half probes
// (conventional, two-level) and BTBs it must leave to the timing half
// (AirBTB, eager insertion, PhantomBTB's shared store), with and without
// a prefetcher, plus a two-workload mix.
func TestStagedMatchesAcrossSchedules(t *testing.T) {
	a := testWorkload(t)
	cases := []struct {
		name string
		mix  []*synth.Workload
		dp   DesignPoint
	}{
		{"Base1K", []*synth.Workload{a}, Base1K},
		{"FDP", []*synth.Workload{a}, FDP1K},
		{"Confluence", []*synth.Workload{a}, Confluence},
		{"PhantomBTB+FDP", []*synth.Workload{a}, PhantomFDP},
		{"2LevelBTB+SHIFT", []*synth.Workload{a}, TwoLevelSHIFT},
		{"AirBTB-Spatial", []*synth.Workload{a}, AirSpatial},
		{"mix", []*synth.Workload{a, testWorkloadB(t)}, Base1KSHIFT},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			want := runStagedCell(t, tc.mix, tc.dp, 1)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{0, 1} {
					got := runStagedCell(t, tc.mix, tc.dp, workers)
					where := fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers)
					if !reflect.DeepEqual(got.exact, want.exact) || !reflect.DeepEqual(got.exactPerCore, want.exactPerCore) {
						t.Errorf("%s: exact stats differ from GOMAXPROCS=1 workers=1: IPC %v vs %v", where, got.exact.IPC(), want.exact.IPC())
					}
					g, w := got.sampled, want.sampled
					if !bytes.Equal(g.snap, w.snap) {
						t.Errorf("%s: warm snapshot differs from GOMAXPROCS=1 workers=1", where)
					}
					if !reflect.DeepEqual(g.agg, w.agg) || !reflect.DeepEqual(g.windows, w.windows) ||
						!reflect.DeepEqual(g.perCore, w.perCore) || !reflect.DeepEqual(g.cov, w.cov) {
						t.Errorf("%s: sampled measurement differs from GOMAXPROCS=1 workers=1: IPC %v vs %v", where, g.agg.IPC(), w.agg.IPC())
					}
				}
			}
		})
	}
}

// exportBTB returns a design's exported state.
func exportBTB(t *testing.T, d btb.Design) any {
	t.Helper()
	switch d := d.(type) {
	case *btb.Conventional:
		return d.ExportState()
	case *btb.TwoLevel:
		return d.ExportState()
	case *airbtb.AirBTB:
		return d.ExportState()
	case *phantom.PhantomBTB:
		return d.ExportState()
	}
	t.Fatalf("no exporter for %T", d)
	return nil
}

// TestStreamOnlyContract pins what btb.Design.StreamOnly promises and
// the pipelined engine relies on: for every design point whose BTB
// declares it, the design's state and prediction results evolve from the
// Predict sequence alone. One instance is driven as the stream half
// drives it (now = 0, no fill calls); a twin sees the same sequence at
// advancing clock values with every block of the stream filled between
// probes, as the timing half does. Their predictions and final exported
// states must match. The eager
// conventional design, which declares false, shows the drive tells the
// difference.
func TestStreamOnlyContract(t *testing.T) {
	w := testWorkload(t)
	opt := DefaultOptions()
	opt.Cores = 1
	opt.SweepBTBEntries = 512
	designBTB := func(dp DesignPoint) btb.Design {
		sys, err := NewMixSystem([]*synth.Workload{w}, dp, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		return sys.Cores[0].BTB()
	}
	drive := func(d btb.Design, timed bool) (hits int, state any) {
		src := trace.NewExecutor(w, 1)
		rng := rand.New(rand.NewPCG(3, 5))
		var now float64
		var rec trace.Record
		for i := 0; i < 20_000; i++ {
			if err := src.Next(&rec); err != nil {
				t.Fatal(err)
			}
			if timed {
				now += 1 + 40*rng.Float64()
				b := isa.BlockOf(rec.Start)
				d.BlockFilled(now, i%512, b, w.Prog.PredecodeBlock(b), rng.IntN(2) == 0)
			}
			if !rec.Br.Kind.IsBranch() {
				continue
			}
			at := 0.0
			if timed {
				at = now
			}
			if hit, _ := d.Predict(at, rec.Start, rec.N, rec.Br); hit {
				hits++
			}
		}
		return hits, exportBTB(t, d)
	}
	checked := 0
	for dp := Base1K; dp <= SweepBTB; dp++ {
		if dp == Ideal {
			continue // perfect BTB: no design to drive
		}
		if d := designBTB(dp); d.StreamOnly() {
			checked++
			hitsA, stateA := drive(d, false)
			hitsB, stateB := drive(designBTB(dp), true)
			if hitsA != hitsB || !reflect.DeepEqual(stateA, stateB) {
				t.Errorf("%v declares StreamOnly, but fills or the clock changed it (hits %d vs %d)", dp, hitsA, hitsB)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no design point declares StreamOnly")
	}
	if designBTB(AirSpatial).StreamOnly() {
		t.Fatal("the eager conventional BTB must not declare StreamOnly")
	}
	_, plain := drive(designBTB(AirSpatial), false)
	_, timed := drive(designBTB(AirSpatial), true)
	if reflect.DeepEqual(plain, timed) {
		t.Error("the contract drive cannot tell an eager design from a stream-only one")
	}
}
