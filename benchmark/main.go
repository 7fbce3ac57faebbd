// Command bench is the repository benchmark of the confluence simulator.
// It runs one workload for a fixed time, checks the simulator's outputs,
// and prints one JSON result line as the last line of standard output:
//
//	python3 benchmark/run.py --workload exact_grid --seed 1 --seconds 10 --trace 0
//
// run.py builds this package and forwards its flags. Workloads:
//
//   - exact_grid: a 5-workload × 3-design grid of experiments.Small-shaped
//     cells swept cell by cell through the public library API
//     (confluence.RunCtx), exact mode, with a durable result store per
//     sweep.
//   - sampled_grid: the same grid in SMARTS-style sampled mode, where
//     warm-up runs through functional fast-forward and warm snapshots are
//     reused across design points that share warm state.
//   - serve_jobs: the grid's cells submitted as point jobs over HTTP to an
//     in-process confluence-serve daemon (one executor worker, store on)
//     by two closed-loop clients; every job uses a fresh program seed.
//
// With -trace 0 the end-to-end metrics are reported; with -trace 1 the
// same loop runs under a CPU profile and the per-layer ledger is reported
// instead (see ledger.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// minSweeps is the fewest sweeps a run measures, however short -seconds is.
const minSweeps = 2

// bench is one workload: set-up, repeated sweeps, and a final check.
type bench interface {
	// setup prepares the first sweep's inputs and any services; it may be
	// called again after teardown, and the last set-up is the one used.
	setup(r *runner) error
	// prepare makes sweep n's inputs, untimed and unprofiled.
	prepare(r *runner, n int) error
	// sweep runs one pass over the workload's units (cells or jobs).
	sweep(ctx context.Context, r *runner, n int) error
	// verify checks the outputs against independent references.
	verify(ctx context.Context, r *runner)
	// teardown stops services and waits for them.
	teardown()
}

// runner accumulates one run's measurements and correctness findings.
type runner struct {
	seed uint64
	dir  string // scratch directory inside the checkout

	attempted, failed int
	problems          []string

	unitMs []float64 // per-unit latency as the user sees it
	sweepS []float64 // per-sweep wall-clock
	instr  float64   // simulated instructions covered by completed units

	model modelTally
	wall  wallTally
}

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "exact_grid | sampled_grid | serve_jobs")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement time")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer ledger instead of end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch stores and ledger output")
	updateGolden := flag.Bool("update-golden", false, "rewrite "+sampledGoldenPath+" from the current simulator and exit")
	flag.Parse()

	if *updateGolden {
		if err := writeSampledGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	var b bench
	switch *workload {
	case "exact_grid":
		b = &gridBench{}
	case "sampled_grid":
		b = &gridBench{sampled: true}
	case "serve_jobs":
		b = &serveBench{}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := run(b, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(b bench, name string, seed uint64, dur time.Duration, trace bool, base string) (*result, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(base, "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	r := &runner{seed: seed, dir: scratch}
	ctx := context.Background()

	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			b.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(r); err != nil {
			b.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.teardown()
	runtime.GC()

	var prof *profiler
	if trace {
		if prof, err = startProfile(filepath.Join(base, "ledger", fmt.Sprintf("%s-seed%d", name, seed))); err != nil {
			return nil, err
		}
	}
	// A sweep starts only if one more as long as the last still ends
	// within dur, so the run measures about dur and no more.
	start := time.Now()
	var last time.Duration
	for n := 0; n < minSweeps || time.Since(start)+last <= dur; n++ {
		t0 := time.Now()
		// Inputs are made, and the heap collected, outside the sweep's
		// timing and profile.
		prof.pause()
		err := b.prepare(r, n)
		runtime.GC()
		if err == nil {
			err = prof.resume()
		}
		if err == nil {
			err = b.sweep(ctx, r, n)
		}
		if err != nil {
			prof.pause()
			return nil, fmt.Errorf("sweep %d: %w", n, err)
		}
		last = time.Since(t0)
	}
	peakRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var layers map[string]metric
	if prof != nil {
		if layers, err = prof.finish(len(r.unitMs)); err != nil {
			return nil, err
		}
	}
	b.verify(ctx, r)

	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	if r.attempted == 0 || len(r.unitMs) == 0 {
		return nil, errors.New("no unit of work completed")
	}
	res := &result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if trace {
		for k, v := range layers {
			res.Metrics[k] = v
		}
		for k, v := range r.wall.metrics() {
			res.Metrics[k] = v
		}
		for k, v := range r.model.metrics() {
			res.Metrics[k] = v
		}
		return res, nil
	}
	res.Metrics["sweep_s"] = metric{median(r.sweepS), "s"}
	res.Metrics["cell_p50_ms"] = metric{quantile(r.unitMs, 0.5), "ms"}
	res.Metrics["cell_p90_ms"] = metric{quantile(r.unitMs, 0.9), "ms"}
	var swept float64
	for _, s := range r.sweepS {
		swept += s
	}
	res.Metrics["minstr_per_s"] = metric{r.instr / 1e6 / swept, "Minstr/s"}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	res.Metrics["peak_rss_mb"] = metric{peakRSS, "MB"}
	return res, nil
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mix64 hashes its parts into one well-spread seed, folding each part in
// with the splitmix64 finalizer.
func mix64(parts ...uint64) uint64 {
	var x uint64 = 0x9E3779B97F4A7C15
	for _, p := range parts {
		x ^= p + 0x9E3779B97F4A7C15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}
