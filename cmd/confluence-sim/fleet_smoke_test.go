package main

// TestFleetSmoke is the end-to-end preemption-robustness check the
// Makefile's fleet-smoke target runs (gated behind FLEET_SMOKE=1 because
// it builds a race-enabled binary and SIGKILLs real worker processes):
//
//  1. Serial baseline: the sweep via plain -job, stdout captured.
//  2. Fleet run: a coordinator plus three workers on the same fleet
//     directory, two of them carrying CONFLUENCE_FLEET_CHAOS
//     kill-after-claims directives so they SIGKILL themselves mid-cell
//     while holding live leases. The coordinator must reclaim their
//     cells after the lease TTL and finish the grid, and its stdout must
//     be byte-identical to the serial baseline.
//  3. Poison cell: a coordinator whose chaos fails one cell on every
//     attempt must quarantine it after the retry budget, complete the
//     rest of the grid, and exit non-zero naming the cell.
//  4. Mixstudy grid: a consolidation study (two workloads on Confluence,
//     shared and private history plus the baselines) run by a
//     coordinator and one worker must print what the serial -job run
//     prints, and the coordinator its fleet report.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestFleetSmoke(t *testing.T) {
	if os.Getenv("FLEET_SMOKE") != "1" {
		t.Skip("set FLEET_SMOKE=1 to run the fleet smoke test")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "confluence-sim")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building confluence-sim: %v", err)
	}

	// A six-cell sweep: enough cells that two kamikaze workers die with
	// real work outstanding, small enough to stay CI-friendly under -race.
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"kind": "sweep",
		"workloads": ["DSS-Qrys", "Web-Frontend", "KeyValue"],
		"designs": ["Base1K", "Confluence"],
		"cores": 2, "no_warmup": true, "measure_instr": 40000
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Serial baseline.
	var serialOut, serialErr bytes.Buffer
	serial := exec.Command(bin, "-job", spec, "-store", filepath.Join(dir, "store-serial"))
	serial.Stdout, serial.Stderr = &serialOut, &serialErr
	if err := serial.Run(); err != nil {
		t.Fatalf("serial baseline failed: %v\n%s", err, serialErr.String())
	}

	// Fleet run: coordinator + 3 workers, 2 of them kamikaze. A short
	// lease TTL keeps the reclaim of the dead workers' cells fast.
	fleetDir := filepath.Join(dir, "fleet")
	storeDir := filepath.Join(dir, "store-fleet")
	coord := exec.Command(bin,
		"-fleet-coordinator", fleetDir, "-job", spec,
		"-store", storeDir, "-fleet-lease-ttl", "2s", "-v")
	var coordOut, coordErr bytes.Buffer
	coord.Stdout, coord.Stderr = &coordOut, &coordErr

	worker := func(chaos string) *exec.Cmd {
		w := exec.Command(bin, "-fleet-worker", fleetDir, "-v")
		w.Env = append(os.Environ(), "CONFLUENCE_FLEET_CHAOS="+chaos)
		w.Stderr = new(bytes.Buffer)
		return w
	}
	// Both kamikazes die on their very first claim: at manifest
	// publication the grid has six free cells and four scanners, so each
	// kamikaze is guaranteed to win a claim (and die holding it) before
	// the survivors drain the grid. A later-claim kill would race grid
	// completion and flake.
	kamikaze1 := worker("kill-after-claims=1")
	kamikaze2 := worker("kill-after-claims=1")
	steady := worker("")

	// Workers first: they block on the manifest, then claim the moment the
	// coordinator publishes it — guaranteeing the kamikazes die holding
	// live leases on unfinished cells.
	for _, w := range []*exec.Cmd{kamikaze1, kamikaze2, steady} {
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}

	sigkilled := func(err error) bool {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return false
		}
		ws, ok := ee.Sys().(syscall.WaitStatus)
		return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
	}
	for name, w := range map[string]*exec.Cmd{"kamikaze1": kamikaze1, "kamikaze2": kamikaze2} {
		if err := w.Wait(); !sigkilled(err) {
			t.Errorf("%s exited %v, want SIGKILL mid-cell\nstderr:\n%s", name, err, w.Stderr.(*bytes.Buffer).String())
		}
	}
	if err := steady.Wait(); err != nil {
		t.Errorf("steady worker failed: %v\nstderr:\n%s", err, steady.Stderr.(*bytes.Buffer).String())
	}
	start := time.Now()
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator failed after %.1fs: %v\nstderr:\n%s", time.Since(start).Seconds(), err, coordErr.String())
	}

	// The whole point: preemption left no trace in the output.
	if coordOut.String() != serialOut.String() {
		t.Errorf("fleet stdout differs from serial run:\nserial:\n%s\nfleet:\n%s", serialOut.String(), coordOut.String())
	}
	if !strings.Contains(coordErr.String(), "quarantined") {
		t.Errorf("coordinator stderr missing the fleet summary:\n%s", coordErr.String())
	}

	// Poison cell: every attempt at c002 fails; the grid must complete
	// degraded — five cells stored, c002 quarantined, exit non-zero.
	poison := exec.Command(bin,
		"-fleet-coordinator", filepath.Join(dir, "fleet-poison"), "-job", spec,
		"-store", filepath.Join(dir, "store-poison"))
	poison.Env = append(os.Environ(), "CONFLUENCE_FLEET_CHAOS=fail-cell=c002")
	var poisonErr bytes.Buffer
	poison.Stderr = &poisonErr
	err := poison.Run()
	if err == nil {
		t.Fatal("poisoned grid exited zero")
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("poisoned coordinator: %v, want exit 1\nstderr:\n%s", err, poisonErr.String())
	}
	stderr := poisonErr.String()
	if !strings.Contains(stderr, "5 completed") || !strings.Contains(stderr, "1 quarantined") {
		t.Errorf("poison summary missing (want 5 completed, 1 quarantined):\n%s", stderr)
	}
	if !strings.Contains(stderr, "c002") || !strings.Contains(stderr, "chaos-injected crash") {
		t.Errorf("quarantine report does not name c002 with its last error:\n%s", stderr)
	}

	// Mixstudy grid: its four cells (shared, private, two baselines) go
	// through the fleet like a sweep's.
	study := filepath.Join(dir, "mixstudy.json")
	if err := os.WriteFile(study, []byte(`{
		"kind": "mixstudy",
		"mix": ["DSS-Qrys", "KeyValue"],
		"designs": ["Confluence"],
		"cores": 2, "no_warmup": true, "measure_instr": 40000
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var studySerial, studySerialErr bytes.Buffer
	serial = exec.Command(bin, "-job", study)
	serial.Stdout, serial.Stderr = &studySerial, &studySerialErr
	if err := serial.Run(); err != nil {
		t.Fatalf("serial mixstudy failed: %v\n%s", err, studySerialErr.String())
	}
	studyFleet := filepath.Join(dir, "fleet-mixstudy")
	studyWorker := exec.Command(bin, "-fleet-worker", studyFleet)
	var studyWorkerErr bytes.Buffer
	studyWorker.Stderr = &studyWorkerErr
	if err := studyWorker.Start(); err != nil {
		t.Fatal(err)
	}
	var studyOut, studyErr bytes.Buffer
	coord = exec.Command(bin, "-fleet-coordinator", studyFleet, "-job", study, "-store", filepath.Join(dir, "store-mixstudy"))
	coord.Stdout, coord.Stderr = &studyOut, &studyErr
	if err := coord.Run(); err != nil {
		t.Fatalf("mixstudy coordinator failed: %v\nstderr:\n%s", err, studyErr.String())
	}
	if err := studyWorker.Wait(); err != nil {
		t.Errorf("mixstudy worker failed: %v\nstderr:\n%s", err, studyWorkerErr.String())
	}
	if studyOut.String() != studySerial.String() {
		t.Errorf("fleet mixstudy stdout differs from serial run:\nserial:\n%s\nfleet:\n%s", studySerial.String(), studyOut.String())
	}
	// The coordinator's own completions plus the cells it found done
	// (the worker's) cover the grid.
	var done, hits, steals, quarantined int
	report := regexp.MustCompile(`fleet ` + regexp.QuoteMeta(studyFleet) + `: \d+ completed.*`).FindString(studyErr.String())
	if _, err := fmt.Sscanf(strings.TrimPrefix(report, "fleet "+studyFleet+": "), "%d completed, %d hits, %d steals, %d quarantined",
		&done, &hits, &steals, &quarantined); err != nil || done+hits != 4 || quarantined != 0 {
		t.Errorf("mixstudy coordinator report %q, want its 4 cells completed or found done, none quarantined:\n%s", report, studyErr.String())
	}
}
