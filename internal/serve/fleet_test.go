package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"confluence"
	"confluence/internal/fleet"
)

// tinySweep is a fast two-cell grid: two workloads × one design, one
// core, no warmup, a short measurement window.
func tinySweep() *confluence.JobSpec {
	return &confluence.JobSpec{
		Kind:      confluence.KindSweep,
		Workloads: []string{"DSS-Qrys", "KeyValue"},
		Designs:   []string{"Base1K"},
		Cores:     1, NoWarmup: true, MeasureInstr: 20_000,
	}
}

// TestFleetCellsExpansion: cells follow spec expansion order with
// deterministic IDs, carry the RunCtx store key, and each cell spec
// round-trips to a runnable point config.
func TestFleetCellsExpansion(t *testing.T) {
	cells, err := FleetCells(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded to %d cells, want 2", len(cells))
	}
	for i, c := range cells {
		if want := []string{"c000", "c001"}[i]; c.ID != want {
			t.Errorf("cell %d ID = %s, want %s", i, c.ID, want)
		}
		spec, err := confluence.ParseJobSpec(c.Spec)
		if err != nil {
			t.Fatalf("cell %s spec does not parse: %v", c.ID, err)
		}
		if spec.NormKind() != confluence.KindPoint || spec.Parallelism != 0 || spec.Priority != 0 {
			t.Errorf("cell %s spec = %+v, want a scheduling-free point spec", c.ID, spec)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		if key, ok := confluence.ConfigStoreKey(cfg); !ok || key != c.Key {
			t.Errorf("cell %s: manifest key %.12s, round-tripped config derives %.12s", c.ID, c.Key, key)
		}
	}
	if cells[0].Key == cells[1].Key {
		t.Error("distinct cells share a store key")
	}

	if _, err := FleetCells(&confluence.JobSpec{Kind: confluence.KindMixStudy, Mix: []string{"DSS-Qrys", "KeyValue"}}); err == nil {
		t.Error("mixstudy spec expanded to fleet cells")
	}
}

// TestExecuteSpecFleetMatchesStorePath: the same sweep through the fleet
// path and the plain store path yields byte-identical results — the
// fleet only changes who computes the cells, never what is served. The
// sampled sweep pins that a cell's sampling report survives the fleet.
func TestExecuteSpecFleetMatchesStorePath(t *testing.T) {
	sampled := tinySweep()
	sp := confluence.AutoSampling(sampled.MeasureInstr)
	sampled.SampleWindowInstr, sampled.SamplePeriodInstr, sampled.SampleWindows = sp.WindowInstr, sp.PeriodInstr, sp.Windows
	sampled.SampleWindowWarmupInstr, sampled.SampleJitterSeed = sp.WindowWarmupInstr, sp.JitterSeed
	for _, tc := range []struct {
		name string
		spec *confluence.JobSpec
	}{
		{"exact", tinySweep()},
		{"sampled", sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			serial, err := ExecuteSpec(context.Background(), tc.spec, filepath.Join(base, "store-serial"), nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range serial.Cells {
				if (c.Sampled != nil) != (tc.name == "sampled") {
					t.Fatalf("serial cell %d: sampling report present = %v", i, c.Sampled != nil)
				}
			}

			o := fleet.Options{Dir: filepath.Join(base, "fleet"), WorkerID: "test-coord"}
			fleetRes, rep, err := ExecuteSpecFleet(context.Background(), tc.spec, filepath.Join(base, "store-fleet"), o, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || rep.Completed != 2 || rep.Failed() {
				t.Fatalf("fleet report = %+v, want 2 completed", rep)
			}

			a, _ := json.Marshal(serial)
			b, _ := json.Marshal(fleetRes)
			if string(a) != string(b) {
				t.Fatalf("fleet result diverges from serial:\nserial: %s\nfleet:  %s", a, b)
			}
		})
	}
}

// TestExecuteSpecFleetReportsPoison: a quarantined cell surfaces as an
// error naming the cell, with the report carrying the poison record.
func TestExecuteSpecFleetReportsPoison(t *testing.T) {
	spec := tinySweep()
	base := t.TempDir()
	o := fleet.Options{
		Dir: filepath.Join(base, "fleet"), WorkerID: "test-coord",
		MaxAttempts: 2, Chaos: &fleet.Chaos{FailCell: "c001"},
	}
	_, rep, err := ExecuteSpecFleet(context.Background(), spec, filepath.Join(base, "store"), o, nil)
	if err == nil {
		t.Fatal("poisoned grid reported success")
	}
	if rep == nil || len(rep.Poisoned) != 1 || rep.Poisoned[0].CellID != "c001" {
		t.Fatalf("report = %+v, want c001 quarantined", rep)
	}
	if rep.Completed != 1 {
		t.Fatalf("healthy cell did not complete: %+v", rep)
	}
}

// TestServerFleetDirRouting: a server configured with FleetDir runs
// point/sweep jobs through per-job fleet directories (manifest on disk)
// and still completes them inline with no workers attached.
func TestServerFleetDirRouting(t *testing.T) {
	base := t.TempDir()
	fleetDir := filepath.Join(base, "fleet")
	s, ts := newTestServer(t, Config{
		Workers: 1, StoreDir: filepath.Join(base, "store"), FleetDir: fleetDir,
	})
	sum := submitted(t, ts, tinySpec())
	waitState(t, s, sum.ID, StateDone)
	if _, err := os.Stat(filepath.Join(fleetDir, "job-1", "manifest.json")); err != nil {
		t.Fatalf("fleet manifest not published: %v", err)
	}
}
