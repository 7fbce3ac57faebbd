package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"confluence/internal/frontend"
	"confluence/internal/synth"
)

// sampledCell is everything a sampled cell produces: the warm snapshot
// taken after the fast-forwarded warm-up, then the windowed measurement.
type sampledCell struct {
	snap    []byte
	agg     *frontend.Stats
	windows []frontend.Stats
	perCore []*frontend.Stats
	cov     *Coverage
}

func runSampledCell(t *testing.T, mix []*synth.Workload, dp DesignPoint, workers int) sampledCell {
	t.Helper()
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Cores = 4
	opt.IntraWorkers = workers
	sys, err := NewMixSystem(mix, dp, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.FastForward(ctx, 40_000); err != nil {
		t.Fatal(err)
	}
	var c sampledCell
	if c.snap, err = sys.WarmSnapshot(); err != nil {
		t.Fatal(err)
	}
	sp := Sampling{WindowInstr: 2000, PeriodInstr: 12_000, Windows: 3, WindowWarmupInstr: 1000, JitterSeed: 7}
	if c.agg, c.windows, c.perCore, c.cov, err = sys.RunSampled(ctx, sp); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParallelFastForwardBitIdentical: sampled cells — stats, windows,
// coverage, and warm-snapshot bytes — are bit-identical whether
// fast-forward steps the cores on one, two, or four workers. The designs
// cover private BTBs with and without SHIFT's shared history, and
// PhantomBTB, whose shared group store keeps it on the serial schedule; the
// mix puts two generator cores on one shared history, so the replay order
// of their records is pinned too.
func TestParallelFastForwardBitIdentical(t *testing.T) {
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
		{"mix-shared-history", []*synth.Workload{a, testWorkloadB(t)}, Confluence},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runSampledCell(t, tc.mix, tc.dp, 1)
			for _, workers := range []int{2, 4} {
				got := runSampledCell(t, tc.mix, tc.dp, workers)
				if !bytes.Equal(want.snap, got.snap) {
					t.Errorf("workers=%d: warm snapshot differs from one worker", workers)
				}
				if !reflect.DeepEqual(want.agg, got.agg) || !reflect.DeepEqual(want.windows, got.windows) ||
					!reflect.DeepEqual(want.perCore, got.perCore) || !reflect.DeepEqual(want.cov, got.cov) {
					t.Errorf("workers=%d: sampled measurement differs from one worker: IPC %v vs %v",
						workers, got.agg.IPC(), want.agg.IPC())
				}
			}
		})
	}
}
