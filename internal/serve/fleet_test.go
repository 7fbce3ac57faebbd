package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// tinyMixStudy is a fast consolidation study: two workloads on two
// cores, Confluence with shared and private history plus the two
// baselines.
func tinyMixStudy() *confluence.JobSpec {
	return &confluence.JobSpec{
		Kind:    confluence.KindMixStudy,
		Mix:     []string{"DSS-Qrys", "KeyValue"},
		Designs: []string{"Confluence"},
		Cores:   2, NoWarmup: true, MeasureInstr: 20_000,
	}
}

// TestFleetCellsExpansion: cells follow spec expansion order with
// deterministic IDs and carry the store key of the spec's cell, and each
// cell's payload is the job's spec without its scheduling knobs — the
// spec a worker expands to find the cell. A mixstudy expands like any
// other kind.
func TestFleetCellsExpansion(t *testing.T) {
	for _, tc := range []struct {
		spec *confluence.JobSpec
		n    int
	}{
		{tinySweep(), 2},
		{tinyMixStudy(), 4},
	} {
		job := *tc.spec
		job.Parallelism, job.Priority = 3, 5
		cells, err := fleetGrid(&job)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != tc.n {
			t.Fatalf("%s expanded to %d cells, want %d", job.NormKind(), len(cells), tc.n)
		}
		want, err := tc.spec.Cells()
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for i, c := range cells {
			if id := fmt.Sprintf("c%03d", i); c.ID != id {
				t.Errorf("cell %d ID = %s, want %s", i, c.ID, id)
			}
			if c.Key != want[i].Key {
				t.Errorf("cell %s: manifest key %.12s, spec cell %d has %.12s", c.ID, c.Key, i, want[i].Key)
			}
			keys[c.Key] = true
			spec, err := confluence.ParseJobSpec(c.Spec)
			if err != nil {
				t.Fatalf("cell %s spec does not parse: %v", c.ID, err)
			}
			if !reflect.DeepEqual(spec, tc.spec) {
				t.Errorf("cell %s payload = %+v, want the job's spec without scheduling knobs %+v", c.ID, spec, tc.spec)
			}
		}
		if len(keys) != len(cells) {
			t.Errorf("%s: distinct cells share a store key", job.NormKind())
		}
	}
}

// TestExecuteSpecFleetMatchesStorePath: the same spec through the fleet
// path and the plain store path yields byte-identical results — the
// fleet only changes who computes the cells, never what is served. The
// sampled sweep pins that a cell's sampling report survives the fleet,
// and the mixstudy that its private-history cells do.
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
		{"mixstudy", tinyMixStudy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			serial, err := ExecuteSpec(context.Background(), tc.spec, filepath.Join(base, "store-serial"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "mixstudy" && len(serial.MixRows) != 2 {
				t.Fatalf("serial mixstudy has %d rows, want 2 (shared, private)", len(serial.MixRows))
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
			cells, err := tc.spec.Cells()
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil || rep.Completed != len(cells) || rep.Failed() {
				t.Fatalf("fleet report = %+v, want %d completed", rep, len(cells))
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
