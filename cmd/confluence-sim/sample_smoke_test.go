package main

// TestSampleSmoke is the end-to-end acceptance check the Makefile's
// sample-smoke target runs (gated behind SAMPLE_SMOKE=1 because it
// builds the real binary and runs full figure sweeps): Figure 1 — the BTB
// capacity sweep, a full figure of prefetcherless cells — must come out
// of sampled mode within 1% of exact on every cell while detailing at
// least 10× fewer instructions. Sweep BTBs have no prefetcher, so the
// sampled cells' full-coverage MPKI is event-exact; anything off by ≥1%
// here means the functional fast-forward path and the detailed path
// disagreed on the miss stream.
//
// The sampled sweep also runs twice more to gate parallel fast-forward's
// determinism end to end: with one cell at a time at GOMAXPROCS=4, so
// each cell's share of the machine steps four cores at once, and fully
// serial at GOMAXPROCS=1. Their stdout must be byte-identical but for
// the elapsed-time line.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestSampleSmoke(t *testing.T) {
	if os.Getenv("SAMPLE_SMOKE") != "1" {
		t.Skip("set SAMPLE_SMOKE=1 to run the sample smoke test")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "confluence-sim")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building confluence-sim: %v", err)
	}

	run := func(env string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-scale", "small", "-run", "fig1"}, args...)...)
		if env != "" {
			cmd.Env = append(os.Environ(), env)
		}
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("confluence-sim %v: %v\n%s", args, err, errb.String())
		}
		return out.String()
	}

	exact := run("")
	sampled := run("GOMAXPROCS=4", "-sample", "-workers", "1")
	if serial := run("GOMAXPROCS=1", "-sample"); stripElapsed(serial) != stripElapsed(sampled) {
		t.Errorf("sampled Figure 1 differs between 4 stepping cores per cell at GOMAXPROCS=4 and serial at GOMAXPROCS=1:\n--- GOMAXPROCS=4\n%s\n--- GOMAXPROCS=1\n%s", sampled, serial)
	}

	// The banner pins the plan; recompute the detail reduction from it.
	// At small scale: warmup 800k + measure 800k per core, all of it
	// detailed in exact mode.
	win, period, n, warm := parseSampleBanner(t, sampled)
	detailed := n * (win + warm)
	const region = 800_000 + 800_000
	if red := float64(region) / float64(detailed); red < 10 {
		t.Errorf("sampled plan details %d of %d instructions (%.1fx reduction), want >=10x", detailed, region, red)
	}
	_ = period

	exactRows := parseFig1(t, exact)
	sampledRows := parseFig1(t, sampled)
	if len(exactRows) == 0 {
		t.Fatalf("no Figure 1 rows parsed from exact output:\n%s", exact)
	}
	for name, ecells := range exactRows {
		scells, ok := sampledRows[name]
		if !ok {
			t.Errorf("sampled Figure 1 missing row %q", name)
			continue
		}
		for i, e := range ecells {
			s := scells[i]
			if e == 0 && s == 0 {
				continue
			}
			if err := math.Abs(s-e) / math.Max(math.Abs(e), 1e-9) * 100; err >= 1.0 {
				t.Errorf("%s col %d: sampled MPKI %.3f vs exact %.3f (%.2f%% error), want <1%%", name, i, s, e, err)
			}
		}
	}
}

// stripElapsed drops the trailing "done in Xs" line, the only output that
// depends on the host rather than the simulation.
func stripElapsed(out string) string {
	if i := strings.LastIndex(out, "done in "); i >= 0 {
		return out[:i]
	}
	return out
}

// parseSampleBanner extracts the plan from the "sampled mode: N windows
// of W instr per P instr (+U detailed warm-up each)" banner.
func parseSampleBanner(t *testing.T, out string) (win, period, n, warm uint64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "sampled mode: ") {
			continue
		}
		if _, err := fmt.Sscanf(line, "sampled mode: %d windows of %d instr per %d instr (+%d detailed warm-up each)",
			&n, &win, &period, &warm); err != nil {
			t.Fatalf("unparseable sampled-mode banner %q: %v", line, err)
		}
		return win, period, n, warm
	}
	t.Fatalf("no sampled-mode banner in output:\n%s", out)
	return
}

// parseFig1 pulls each Figure 1 table row (workload name → MPKI columns)
// out of the CLI's stdout.
func parseFig1(t *testing.T, out string) map[string][]float64 {
	t.Helper()
	rows := make(map[string][]float64)
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Figure 1:") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			if len(rows) > 0 {
				break // table finished
			}
			continue
		}
		// A data row is a name followed by float columns.
		var cells []float64
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				cells = nil
				break
			}
			cells = append(cells, v)
		}
		if len(cells) > 0 {
			rows[fields[0]] = cells
		}
	}
	return rows
}
