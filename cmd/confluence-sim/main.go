// Command confluence-sim regenerates the paper's evaluation: every table
// and figure, printed as text tables in the paper's row/series layout.
//
// Usage:
//
//	confluence-sim [-scale small|default|paper] [-workers N] [-run fig1,table2,fig6,probe,...] [-workload NAME] [-store DIR] [-sample] [-v]
//	confluence-sim -trace CAPTURE_DIR [-workload NAME] [-scale ...]
//	confluence-sim -mix OLTP-DB2,Web-Frontend [-scale ...]
//	confluence-sim -job job.json [-store DIR] [-v]
//	confluence-sim -fleet-coordinator DIR -job job.json -store DIR [-fleet-lease-ttl D] [-v]
//	confluence-sim -fleet-worker DIR [-fleet-lease-ttl D] [-v]
//
// The modes are -trace, -mix, -job, -fleet-coordinator and -fleet-worker;
// without one, the binary runs the -run experiments. A flag the selected
// mode would ignore (-run with any mode, -workload with -mix, -sample
// with -job, two modes at once, ...) exits 2 naming it.
//
// The standalone tools this binary absorbed map onto it as:
//
//	btbsweep [-workload W]                     confluence-sim -run fig1 [-workload W]
//	frontend-probe -workload W                 confluence-sim -run probe -workload W
//	frontend-probe -trace DIR [-workload W]    confluence-sim -trace DIR [-workload W]
//	confluence-sim -trace DIR -trace-workload W    confluence-sim -trace DIR -workload W
//
// frontend-probe's -cores and -instr are the scale's cores and per-core
// warmup/measure counts (its defaults, 8 cores and 1.5M, are -scale
// default).
//
// The default runs everything at the "default" scale (8 cores, 3M
// instructions per core), fanning independent simulation cells out across
// all CPUs. REPRO_SCALE overrides the default scale; REPRO_WORKERS (or
// -workers) bounds the worker pool. In sampled mode each simulation
// fast-forwards at most max(1, GOMAXPROCS/workers) of its cores at once,
// so the pool and the cores stepping inside it share the machine.
// -workload limits the suite to one workload for every experiment but
// mixstudy, which needs several: -run all then leaves it out, and -run
// mixstudy exits 2 (use -mix). Results
// are bit-identical for any worker count. Ctrl-C cancels cleanly between
// cells.
//
// The probe experiment shows where a workload's cycles go: a
// characterization of its instruction stream, then Figure 6's cells with
// IPC, miss rates and the per-kilo-instruction cycle decomposition.
//
// With -trace, the binary runs the probe over a capture directory
// (written by `tracegen -cores`) replayed through the timing model.
// Naming the capture's source workload with -workload restores its
// program image and timing calibration, making the replay bit-identical
// to the live run that produced the capture.
//
// With -mix, the binary consolidates the named workloads onto one CMP
// (core i runs workload i mod N) and runs the consolidation study on that
// mix; the `mixstudy` experiment sweeps 2-, 4- and 5-workload mixes.
//
// With -job, the binary executes a serialized JobSpec (the same JSON
// schema the confluence-serve daemon accepts) through the daemon's
// executor, so a spec can be debugged locally before being submitted to a
// server — the results are identical by construction.
//
// With -sample, simulations run in SMARTS-style sampled mode: functional
// fast-forward warm-up, then periodic detailed windows whose statistics
// carry 95% confidence intervals, at ~10-20x fewer detailed instructions.
// With -store, warm-up state is checkpointed and reused across design
// points. Exact mode (no flag) remains the golden anchor.
//
// With -store, completed cells persist to a content-addressed on-disk
// result store and stored cells are served from it, so a run killed
// mid-grid resumes with byte-identical output; a summary of store traffic
// prints to stderr on exit. Fleet workers use the store their fleet's
// manifest names instead.
//
// With -fleet-coordinator, the binary publishes the -job spec's grid as a
// lease-based fleet rooted at DIR and works it alongside any number of
// `confluence-sim -fleet-worker DIR` processes on the same filesystem;
// SIGKILLed workers' cells are reclaimed when their leases expire, and
// with no workers the coordinator runs the whole grid itself. Stdout is
// byte-identical to the plain `-job` run; fleet progress goes to stderr.
// Cells that keep failing are quarantined and the coordinator exits
// non-zero listing them. The CONFLUENCE_FLEET_CHAOS environment variable
// injects faults for the robustness harness (see internal/fleet).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"confluence"
	"confluence/internal/cliutil"
	"confluence/internal/experiments"
	"confluence/internal/fleet"
	"confluence/internal/serve"
	"confluence/internal/stats"
	"confluence/internal/store"
)

// simFlags are the flags shared by every mode that builds a Runner.
type simFlags struct {
	workers         int
	storeDir        string
	sample, verbose bool
}

func main() {
	scaleFlag := flag.String("scale", "", "simulation scale: small, default, or paper")
	runFlag := flag.String("run", "all", "comma-separated experiments: "+experimentNames())
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = REPRO_WORKERS or GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-run progress")
	traceDir := flag.String("trace", "", "run the probe over a capture directory replayed through the timing model instead of the synthetic suite")
	workload := flag.String("workload", "", "limit the suite to this workload; with -trace, the capture's source workload (restores program image + calibration)")
	mixFlag := flag.String("mix", "", "comma-separated workload names: run the consolidation study on this mix (core i runs workload i mod N)")
	jobFlag := flag.String("job", "", "execute a JobSpec JSON file (the confluence-serve schema) and print its result rows")
	storeDir := flag.String("store", "", "durable result store directory: completed cells persist and repeat runs resume from them")
	fleetCoord := flag.String("fleet-coordinator", "", "publish the -job grid as a fleet rooted at this directory and participate until it resolves (requires -job and -store)")
	fleetWorker := flag.String("fleet-worker", "", "attach to the fleet rooted at this directory and work cells until the grid resolves")
	fleetTTL := flag.Duration("fleet-lease-ttl", 0, "fleet cell lease TTL (coordinator default 10s; workers inherit the manifest's)")
	sample := flag.Bool("sample", false, "SMARTS-style sampled simulation: fast-forward warm-up + periodic detailed measurement windows with 95% CIs (~10x fewer detailed instructions; exact mode stays the golden anchor)")
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlags(set); err != nil {
		usage(err)
	}
	want, err := parseRun(*runFlag, *workload != "")
	if err != nil {
		usage(err)
	}
	defer reportStore(*storeDir)

	sc := experiments.ScaleFromEnv()
	if *scaleFlag != "" {
		var ok bool
		if sc, ok = experiments.ScaleByName(*scaleFlag); !ok {
			usage(fmt.Errorf("unknown scale %q", *scaleFlag))
		}
	}
	sf := simFlags{workers: *workers, storeDir: *storeDir, sample: *sample, verbose: *verbose}

	ctx, stop := cliutil.InterruptContext()
	defer stop()

	switch {
	case *fleetWorker != "":
		err = runFleetWorker(ctx, *fleetWorker, *fleetTTL, *verbose)
	case *fleetCoord != "":
		err = runFleetCoordinator(ctx, *fleetCoord, *jobFlag, *storeDir, *fleetTTL, *verbose)
	case *jobFlag != "":
		err = runJobFile(ctx, *jobFlag, *storeDir, *verbose)
	case *mixFlag != "":
		err = runMix(ctx, sc, *mixFlag, sf)
	default: // the -run experiments, or the probe over a -trace capture
		if *traceDir != "" {
			want = map[string]bool{"probe": true}
		}
		var ws []*confluence.Workload
		if ws, err = suite(*traceDir, *workload); err == nil {
			err = runExperiments(ctx, sc, ws, want, sf)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// modeFlags lists the flags each mode reads, keyed by the flag that
// selects the mode ("" runs the -run experiments).
var modeFlags = map[string][]string{
	"":                  {"scale", "run", "workers", "v", "workload", "store", "sample"},
	"trace":             {"scale", "workers", "v", "workload", "store", "sample"},
	"mix":               {"scale", "workers", "v", "store", "sample"},
	"job":               {"store", "v"},
	"fleet-coordinator": {"job", "store", "fleet-lease-ttl", "v"},
	"fleet-worker":      {"fleet-lease-ttl", "v"},
}

// checkFlags rejects a command line, given the names of the flags it
// set, that selects two modes or sets a flag its mode would silently
// ignore.
func checkFlags(set []string) error {
	has := func(name string) bool { return slices.Contains(set, name) }
	var modes []string
	for _, m := range []string{"fleet-worker", "fleet-coordinator", "job", "trace", "mix"} {
		if has(m) && !(m == "job" && has("fleet-coordinator")) {
			modes = append(modes, m)
		}
	}
	if len(modes) > 1 {
		return fmt.Errorf("-%s and -%s are separate modes; use one", modes[0], modes[1])
	}
	mode, in := "", "without a mode flag"
	if len(modes) == 1 {
		mode, in = modes[0], "with -"+modes[0]
	}
	for _, name := range set {
		if name != mode && !slices.Contains(modeFlags[mode], name) {
			return fmt.Errorf("-%s has no effect %s", name, in)
		}
	}
	if mode == "fleet-coordinator" && (!has("job") || !has("store")) {
		return fmt.Errorf("-fleet-coordinator requires -job (the grid) and -store (where results land)")
	}
	return nil
}

// runner builds a Runner over ws (nil: the full suite) configured by the
// shared flags.
func (f simFlags) runner(sc experiments.Scale, ws []*confluence.Workload) (*experiments.Runner, error) {
	var r *experiments.Runner
	if ws == nil {
		var err error
		if r, err = experiments.NewRunner(sc, f.workers); err != nil {
			return nil, err
		}
	} else {
		r = experiments.NewRunnerFor(sc, ws)
		r.Workers = f.workers
	}
	if f.storeDir != "" {
		r.Store = store.Open(f.storeDir)
	}
	if f.sample {
		r.Sampling = confluence.AutoSampling(sc.Measure)
	}
	r.OnProgress = progressPrinter(f.verbose)
	return r, nil
}

// suite resolves the workloads -run and -trace simulate: nil (the full
// suite), the one -workload names, or the -trace capture replayed under
// -workload's program image and calibration — without a name, as an
// external capture with default calibration and no program image.
func suite(traceDir, name string) ([]*confluence.Workload, error) {
	if traceDir != "" && name == "" {
		w, err := confluence.WorkloadFromTrace(traceDir)
		return []*confluence.Workload{w}, err
	}
	if name == "" {
		return nil, nil
	}
	w, err := confluence.BuildWorkload(name)
	if err != nil {
		return nil, err
	}
	w.TraceDir = traceDir
	return []*confluence.Workload{w}, nil
}

// experiment runs one -run experiment and returns its formatted output.
type experiment func(context.Context, *experiments.Runner) (any, error)

// tabulate pairs a Runner experiment with the formatter of its rows.
func tabulate[T, S any](format func(T) S, run func(*experiments.Runner, context.Context) (T, error)) experiment {
	return func(ctx context.Context, r *experiments.Runner) (any, error) {
		rows, err := run(r, ctx)
		if err != nil {
			return nil, err
		}
		return format(rows), nil
	}
}

// perfArea formats Figure 2/6 points under a title.
func perfArea(title string) func([]experiments.PerfAreaPoint) *stats.Table {
	return func(p []experiments.PerfAreaPoint) *stats.Table { return experiments.PerfAreaTable(title, p) }
}

// experimentList is every -run experiment in output order.
var experimentList = []struct {
	name string
	run  experiment
}{
	{"table2", tabulate(experiments.Table2Table, (*experiments.Runner).Table2)},
	{"fig1", tabulate(experiments.Figure1Table, (*experiments.Runner).Figure1)},
	{"fig2", tabulate(perfArea("Figure 2: conventional instruction-supply mechanisms"), (*experiments.Runner).Figure2)},
	{"fig6", tabulate(perfArea("Figure 6: Confluence vs conventional mechanisms"), (*experiments.Runner).Figure6)},
	{"probe", tabulate(experiments.ProbeTable, (*experiments.Runner).Probe)},
	{"fig7", tabulate(experiments.Figure7Table, (*experiments.Runner).Figure7)},
	{"fig8", tabulate(experiments.Figure8Table, (*experiments.Runner).Figure8)},
	{"fig9", tabulate(experiments.Figure9Table, (*experiments.Runner).Figure9)},
	{"fig10", tabulate(experiments.Figure10Table, (*experiments.Runner).Figure10)},
	{"mixstudy", tabulate(experiments.MixStudyTable, (*experiments.Runner).MixStudy)},
	{"ablations", func(ctx context.Context, r *experiments.Runner) (any, error) {
		depth, err := r.LookaheadSweep(ctx, []int{4, 8, 20, 32})
		if err != nil {
			return nil, err
		}
		history, err := r.SharedVsPrivateHistory(ctx)
		if err != nil {
			return nil, err
		}
		return experiments.AblationTable("Ablation: SHIFT lookahead depth (Confluence)", depth).String() + "\n" +
			experiments.AblationTable("Ablation: shared vs private SHIFT history (Confluence)", history).String(), nil
	}},
}

// experimentNames lists the -run names in output order, then "all".
func experimentNames() string {
	var names []string
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ",")
}

// parseRun resolves a comma-separated -run list to the experiments it
// selects, rejecting names that select none. "all" selects every
// experiment, except that a one-workload suite (-workload) leaves out
// mixstudy, which consolidates several workloads; naming mixstudy there
// is an error pointing to -mix.
func parseRun(list string, oneWorkload bool) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if !slices.Contains(strings.Split(experimentNames(), ","), name) {
			return nil, fmt.Errorf("unknown experiment %q in -run (have: %s)", name, experimentNames())
		}
		if name == "mixstudy" && oneWorkload {
			return nil, fmt.Errorf("-run mixstudy consolidates several workloads and -workload leaves one; use -mix W1,W2,... for a study of one mix")
		}
		want[name] = true
	}
	if want["all"] {
		delete(want, "all")
		for _, e := range experimentList {
			want[e.name] = !(e.name == "mixstudy" && oneWorkload)
		}
	}
	return want, nil
}

// runExperiments runs the selected experiments over ws (nil: the full
// suite) and prints their tables in canonical order.
func runExperiments(ctx context.Context, sc experiments.Scale, ws []*confluence.Workload, want map[string]bool, f simFlags) error {

	//confluence:allow wallclock human-facing elapsed-time banner; never reaches simulated stats
	start := time.Now()
	fmt.Printf("confluence-sim: scale=%s cores=%d warmup=%d measure=%d (per core)\n\n",
		sc.Name, sc.Cores, sc.Warmup, sc.Measure)

	r, err := f.runner(sc, ws)
	if err != nil {
		return err
	}
	if sp := r.Sampling; sp.Enabled() {
		fmt.Printf("sampled mode: %d windows of %d instr per %d instr (+%d detailed warm-up each), warm-up fast-forwarded\n\n",
			sp.Windows, sp.WindowInstr, sp.PeriodInstr, sp.WindowWarmupInstr)
	}
	for _, e := range experimentList {
		if !want[e.name] {
			continue
		}
		out, err := e.run(ctx, r)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}

	//confluence:allow wallclock human-facing elapsed-time banner; never reaches simulated stats
	fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())
	return nil
}

// runMix runs the consolidation study on one explicit workload mix.
func runMix(ctx context.Context, sc experiments.Scale, spec string, f simFlags) error {
	var mix []*confluence.Workload
	for _, name := range strings.Split(spec, ",") {
		w, err := confluence.BuildWorkload(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		mix = append(mix, w)
	}
	r, err := f.runner(sc, mix)
	if err != nil {
		return err
	}
	fmt.Printf("consolidating %s onto %d cores (core i runs workload i mod %d), warmup=%d measure=%d per core\n\n",
		experiments.MixName(mix), sc.Cores, len(mix), sc.Warmup, sc.Measure)
	rows, err := r.MixStudyFor(ctx, [][]*confluence.Workload{mix}, experiments.MixStudyDesigns())
	if err != nil {
		return err
	}
	fmt.Println(experiments.MixStudyTable(rows))
	return nil
}

// runJobFile executes a JobSpec file through the serving executor — the
// exact path a confluence-serve worker takes — and prints the result.
func runJobFile(ctx context.Context, path, storeDir string, verbose bool) error {
	spec, err := loadJobSpec(path)
	if err != nil {
		return err
	}
	res, err := serve.ExecuteSpec(ctx, spec, storeDir, progressPrinter(verbose))
	if err != nil {
		return err
	}
	printJobResult(res)
	return nil
}

// loadJobSpec reads and parses a JobSpec file.
func loadJobSpec(path string) (*confluence.JobSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return confluence.ParseJobSpec(data)
}

// progressPrinter returns the verbose per-cell progress printer (nil when
// quiet). Progress goes to stderr; stdout carries only the result, which
// is what keeps fleet and serial runs byte-comparable.
func progressPrinter(verbose bool) func(experiments.ProgressEvent) {
	if !verbose {
		return nil
	}
	return func(e experiments.ProgressEvent) { fmt.Fprintln(os.Stderr, "  "+e.String()) }
}

// printJobResult renders a job result to stdout in the -job layout.
func printJobResult(res *serve.Result) {
	if res.Kind == confluence.KindMixStudy {
		fmt.Println(experiments.MixStudyTable(res.MixRows))
		return
	}
	fmt.Printf("%-20s %-18s %7s %8s %8s %9s\n", "mix", "design", "IPC", "btbMPKI", "l1iMPKI", "area mm2")
	for _, c := range res.Cells {
		fmt.Printf("%-20s %-18s %7.3f %8.1f %8.1f %9.3f\n",
			c.Mix, c.Design, c.Stats.IPC(), c.Stats.BTBMPKI(), c.Stats.L1IMPKI(), c.OverheadMM2)
	}
}

// fleetEventLogger streams fleet protocol events to stderr when verbose.
func fleetEventLogger(verbose bool) func(fleet.Event) {
	if !verbose {
		return nil
	}
	return func(e fleet.Event) {
		line := fmt.Sprintf("fleet %-6s %s worker=%s", e.Type, e.Cell, e.Worker)
		if e.Attempt > 0 {
			line += fmt.Sprintf(" attempt=%d", e.Attempt)
		}
		if e.Err != "" {
			line += " err=" + e.Err
		}
		fmt.Fprintln(os.Stderr, "  "+line)
	}
}

// runFleetCoordinator publishes the job's grid into dir, participates
// until it resolves, and prints the assembled result — byte-identical to
// the plain -job run. Quarantined cells surface as an error (non-zero
// exit) after the healthy cells have completed and persisted.
func runFleetCoordinator(ctx context.Context, dir, jobPath, storeDir string, ttl time.Duration, verbose bool) error {
	spec, err := loadJobSpec(jobPath)
	if err != nil {
		return err
	}
	chaos, err := fleet.ChaosFromEnv()
	if err != nil {
		return err
	}
	o := fleet.Options{Dir: dir, LeaseTTL: ttl, Chaos: chaos, OnEvent: fleetEventLogger(verbose)}
	res, rep, err := serve.ExecuteSpecFleet(ctx, spec, storeDir, o, progressPrinter(verbose))
	if rep != nil {
		fmt.Fprintf(os.Stderr, "fleet %s: %d completed, %d hits, %d steals, %d quarantined\n",
			dir, rep.Completed, rep.Hits, rep.Steals, len(rep.Poisoned))
	}
	if err != nil {
		return err
	}
	printJobResult(res)
	return nil
}

// runFleetWorker attaches to the fleet at dir and works cells until the
// grid resolves. Workers exit zero even when the grid ends with
// quarantined cells — a poison cell is the grid's defect, not this
// worker's — and report what they saw on stderr.
func runFleetWorker(ctx context.Context, dir string, ttl time.Duration, verbose bool) error {
	chaos, err := fleet.ChaosFromEnv()
	if err != nil {
		return err
	}
	o := fleet.Options{
		Dir: dir, Run: serve.CellRunner(), LeaseTTL: ttl,
		Chaos: chaos, OnEvent: fleetEventLogger(verbose),
	}
	rep, err := fleet.Worker(ctx, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet worker done: %d completed, %d hits, %d steals, %d quarantined\n",
		rep.Completed, rep.Hits, rep.Steals, len(rep.Poisoned))
	for _, p := range rep.Poisoned {
		fmt.Fprintf(os.Stderr, "  quarantined %s after %d attempts: %s\n", p.CellID, p.Attempts, p.LastErr)
	}
	return nil
}

// reportStore prints the run's store traffic to stderr. The store
// registry hands back the same handle every path used, so the counters
// cover the whole process.
func reportStore(dir string) {
	if dir == "" {
		return
	}
	s := store.Open(dir)
	hits, misses, writes := s.Counters()
	fmt.Fprintf(os.Stderr, "store %s: %d hits, %d misses, %d writes (%d entries)\n",
		s.Dir(), hits, misses, writes, s.Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "confluence-sim:", err)
	os.Exit(1)
}

// usage reports a command-line error: exit 2, as the flag package does.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "confluence-sim:", err)
	os.Exit(2)
}
