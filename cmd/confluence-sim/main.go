// Command confluence-sim regenerates the paper's evaluation: every table
// and figure, printed as text tables in the paper's row/series layout.
//
// Usage:
//
//	confluence-sim [-scale small|default|paper] [-workers N] [-intra-workers N] [-run fig1,table2,fig6,...] [-store DIR] [-sample] [-v]
//	confluence-sim -trace CAPTURE_DIR [-trace-workload NAME] [-scale ...]
//	confluence-sim -mix OLTP-DB2,Web-Frontend [-scale ...]
//	confluence-sim -job job.json [-v]
//	confluence-sim -fleet-coordinator DIR -job job.json -store DIR [-fleet-lease-ttl D] [-v]
//	confluence-sim -fleet-worker DIR [-v]
//
// The default runs everything at the "default" scale (8 cores, 3M
// instructions per core), fanning independent simulation cells out across
// all CPUs. REPRO_SCALE overrides the default scale; REPRO_WORKERS (or
// -workers) bounds the worker pool. -intra-workers additionally fast-forwards
// the cores of each sampled simulation in parallel (the -workers budget is
// split between the two levels). Results are bit-identical for any worker
// count. Ctrl-C cancels cleanly between cells.
//
// With -trace, the binary replays a capture directory (written by
// `tracegen -cores`) through the timing model instead of the synthetic
// suite, running the paper's headline design points on it. Naming the
// capture's source workload with -trace-workload restores its program
// image and timing calibration, making the replay bit-identical to the
// live run that produced the capture.
//
// With -mix, the binary consolidates the named workloads onto one CMP
// (core i runs workload i mod N) and runs the consolidation study on that
// single mix: the history-sharing design points, each with the
// shared-vs-private SHIFT history ablation, reported as harmonic-mean IPC
// and weighted speedup against each workload running alone. The full 2-,
// 4-, and 5-workload sweep runs as the `mixstudy` experiment.
//
// With -job, the binary executes a serialized JobSpec (the same JSON
// schema the confluence-serve daemon accepts) through the daemon's
// executor, so a spec can be debugged locally before being submitted to a
// server — the results are identical by construction.
//
// With -sample, simulations run in SMARTS-style sampled mode: warm-up
// advances through functional fast-forward (only history-relevant state —
// predictors, BTBs, caches, SHIFT history — evolves) and the measure
// region is covered by periodic detailed windows whose per-window
// statistics carry 95% confidence intervals, cutting detailed-simulated
// instructions ~10-20x at sub-percent IPC/MPKI error. Combined with
// -store, the warm-up state is checkpointed and reused across design
// points sharing a workload. Exact mode (no flag) remains the golden
// anchor.
//
// With -store, completed simulation cells persist to a content-addressed
// on-disk result store, and cells whose inputs are already stored are
// served from it without simulating: a run killed mid-grid resumes from
// its completed cells on the next invocation, with byte-identical output.
// The flag composes with every mode; a summary of store traffic prints to
// stderr on exit.
//
// With -fleet-coordinator, the binary publishes the -job spec's grid as a
// lease-based fleet rooted at DIR and participates in it: any number of
// `confluence-sim -fleet-worker DIR` processes (started before or after,
// on the same filesystem) pull unclaimed cells work-stealing style, and
// SIGKILLed workers' cells are reclaimed when their leases expire. With
// zero workers attached the coordinator executes the whole grid inline.
// Either way stdout is byte-identical to the plain `-job` run: the final
// result is always served from the -store in canonical order. Cells that
// keep failing are quarantined after their retry budget; the coordinator
// then exits non-zero listing them (the healthy cells' results remain in
// the store). Fleet progress goes to stderr only. The
// CONFLUENCE_FLEET_CHAOS environment variable injects faults for the
// robustness harness (see internal/fleet).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"confluence"
	"confluence/internal/cliutil"
	"confluence/internal/experiments"
	"confluence/internal/fleet"
	"confluence/internal/serve"
	"confluence/internal/store"
)

func main() {
	scaleFlag := flag.String("scale", "", "simulation scale: small, default, or paper")
	runFlag := flag.String("run", "all", "comma-separated experiments: fig1,table2,fig2,fig6,fig7,fig8,fig9,fig10,ablations,mixstudy,all")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = REPRO_WORKERS or GOMAXPROCS)")
	intraWorkers := flag.Int("intra-workers", 0, "fast-forward workers inside each simulation (0/1 = serial for grid cells; the -workers budget is split between levels)")
	verbose := flag.Bool("v", false, "print per-run progress")
	traceDir := flag.String("trace", "", "replay a capture directory through the timing model instead of the synthetic suite")
	traceWorkload := flag.String("trace-workload", "", "workload the capture was taken from (restores program image + calibration)")
	mixFlag := flag.String("mix", "", "comma-separated workload names: run the consolidation study on this mix (core i runs workload i mod N)")
	jobFlag := flag.String("job", "", "execute a JobSpec JSON file (the confluence-serve schema) and print its result rows")
	storeDir := flag.String("store", "", "durable result store directory: completed cells persist and repeat runs resume from them")
	fleetCoord := flag.String("fleet-coordinator", "", "publish the -job grid as a fleet rooted at this directory and participate until it resolves (requires -job and -store)")
	fleetWorker := flag.String("fleet-worker", "", "attach to the fleet rooted at this directory and work cells until the grid resolves")
	fleetTTL := flag.Duration("fleet-lease-ttl", 0, "fleet cell lease TTL (coordinator default 10s; workers inherit the manifest's)")
	sample := flag.Bool("sample", false, "SMARTS-style sampled simulation: fast-forward warm-up + periodic detailed measurement windows with 95% CIs (~10x fewer detailed instructions; exact mode stays the golden anchor)")
	flag.Parse()
	defer reportStore(*storeDir)

	sc := experiments.ScaleFromEnv()
	if *scaleFlag != "" {
		var ok bool
		if sc, ok = experiments.ScaleByName(*scaleFlag); !ok {
			fmt.Fprintf(os.Stderr, "confluence-sim: unknown scale %q\n", *scaleFlag)
			os.Exit(2)
		}
	}

	ctx, stop := cliutil.InterruptContext()
	defer stop()

	if *fleetWorker != "" {
		if err := runFleetWorker(ctx, *fleetWorker, *fleetTTL, *verbose); err != nil {
			fatal(err)
		}
		return
	}
	if *fleetCoord != "" {
		if *jobFlag == "" || *storeDir == "" {
			fatal(fmt.Errorf("-fleet-coordinator requires -job (the grid) and -store (where results land)"))
		}
		if err := runFleetCoordinator(ctx, *fleetCoord, *jobFlag, *storeDir, *fleetTTL, *verbose); err != nil {
			fatal(err)
		}
		return
	}
	if *jobFlag != "" {
		if err := runJobFile(ctx, *jobFlag, *storeDir, *verbose); err != nil {
			fatal(err)
		}
		return
	}
	if *traceDir != "" {
		if err := replayTrace(ctx, sc, *traceDir, *traceWorkload, *storeDir, *workers, *intraWorkers, *sample); err != nil {
			fatal(err)
		}
		return
	}
	if *mixFlag != "" {
		if err := runMix(ctx, sc, *mixFlag, *storeDir, *workers, *intraWorkers, *sample, *verbose); err != nil {
			fatal(err)
		}
		return
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	pick := func(name string) bool { return all || want[name] }

	//confluence:allow wallclock human-facing elapsed-time banner; never reaches simulated stats
	start := time.Now()
	fmt.Printf("confluence-sim: scale=%s cores=%d warmup=%d measure=%d (per core)\n\n",
		sc.Name, sc.Cores, sc.Warmup, sc.Measure)

	r, err := experiments.NewRunner(sc, *workers)
	if err != nil {
		fatal(err)
	}
	r.IntraWorkers = *intraWorkers
	if *storeDir != "" {
		r.Store = store.Open(*storeDir)
	}
	if *sample {
		sp := confluence.AutoSampling(sc.Measure)
		r.Sampling = sp
		fmt.Printf("sampled mode: %d windows of %d instr per %d instr (+%d detailed warm-up each), warm-up fast-forwarded\n\n",
			sp.Windows, sp.WindowInstr, sp.PeriodInstr, sp.WindowWarmupInstr)
	}
	if *verbose {
		r.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}

	if pick("table2") {
		rows, err := r.Table2(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Table2Table(rows))
	}
	if pick("fig1") {
		rows, err := r.Figure1(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Figure1Table(rows))
	}
	if pick("fig2") {
		points, err := r.Figure2(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.PerfAreaTable("Figure 2: conventional instruction-supply mechanisms", points))
	}
	if pick("fig6") {
		points, err := r.Figure6(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.PerfAreaTable("Figure 6: Confluence vs conventional mechanisms", points))
	}
	if pick("fig7") {
		rows, err := r.Figure7(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Figure7Table(rows))
	}
	if pick("fig8") {
		rows, err := r.Figure8(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Figure8Table(rows))
	}
	if pick("fig9") {
		rows, err := r.Figure9(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Figure9Table(rows))
	}
	if pick("fig10") {
		rows, err := r.Figure10(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.Figure10Table(rows))
	}
	if pick("mixstudy") {
		rows, err := r.MixStudy(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.MixStudyTable(rows))
	}
	if pick("ablations") {
		rows, err := r.LookaheadSweep(ctx, []int{4, 8, 20, 32})
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.AblationTable("Ablation: SHIFT lookahead depth (Confluence)", rows))
		rows, err = r.SharedVsPrivateHistory(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.AblationTable("Ablation: shared vs private SHIFT history (Confluence)", rows))
	}

	//confluence:allow wallclock human-facing elapsed-time banner; never reaches simulated stats
	fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())
}

// replayTrace runs the paper's headline design points over a capture
// directory, one replayed simulation per design.
func replayTrace(ctx context.Context, sc experiments.Scale, dir, workloadName, storeDir string, workers, intraWorkers int, sample bool) error {
	// Split the goroutine budget between replay-level and in-run
	// parallelism, exactly as the experiment runners do.
	workers = experiments.SplitWorkers(workers, intraWorkers)
	var w *confluence.Workload
	var err error
	if workloadName != "" {
		w, err = confluence.BuildWorkload(workloadName)
	} else {
		w, err = confluence.WorkloadFromTrace(dir)
	}
	if err != nil {
		return err
	}

	designs := []confluence.DesignPoint{
		confluence.Base1K, confluence.FDP1K, confluence.TwoLevelFDP,
		confluence.TwoLevelSHIFT, confluence.Confluence, confluence.Ideal,
	}
	var sp confluence.Sampling
	if sample {
		sp = confluence.AutoSampling(sc.Measure)
	}
	cfgs := make([]confluence.Config, len(designs))
	for i, dp := range designs {
		cfgs[i] = confluence.Config{
			Workload: w, Design: dp, TraceDir: dir, Cores: sc.Cores,
			WarmupInstr: sc.Warmup, MeasureInstr: sc.Measure,
			Parallelism:      workers,
			IntraParallelism: intraWorkers,
			StoreDir:         storeDir,
			Sampling:         sp,
		}
	}
	res, err := confluence.RunMany(ctx, workers, cfgs)
	if err != nil {
		return err
	}

	fmt.Printf("replaying %s (%s calibration), %d cores, warmup=%d measure=%d per core\n\n",
		dir, w.Prof.Name, sc.Cores, sc.Warmup, sc.Measure)
	header := fmt.Sprintf("%-18s %7s %8s %8s %9s", "design", "IPC", "btbMPKI", "l1iMPKI", "speedup")
	if sample {
		header += "   IPC ±95%CI"
	}
	fmt.Println(header)
	base := res[0].Stats.IPC()
	for i, dp := range designs {
		st := res[i].Stats
		line := fmt.Sprintf("%-18s %7.3f %8.1f %8.1f %8.2fx",
			dp, st.IPC(), st.BTBMPKI(), st.L1IMPKI(), st.IPC()/base)
		if rep := res[i].Sampled; rep != nil {
			line += "   " + rep.IPC.String()
		}
		fmt.Println(line)
	}
	return nil
}

// runMix runs the consolidation study on one explicit workload mix.
func runMix(ctx context.Context, sc experiments.Scale, spec, storeDir string, workers, intraWorkers int, sample, verbose bool) error {
	var mix []*confluence.Workload
	for _, name := range strings.Split(spec, ",") {
		w, err := confluence.BuildWorkload(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		mix = append(mix, w)
	}
	r := experiments.NewRunnerFor(sc, nil)
	r.Workers = workers
	r.IntraWorkers = intraWorkers
	if storeDir != "" {
		r.Store = store.Open(storeDir)
	}
	if sample {
		r.Sampling = confluence.AutoSampling(sc.Measure)
	}
	if verbose {
		r.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
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
	res, err := serve.ExecuteSpecStore(ctx, spec, storeDir, jobEmitter(verbose))
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

// jobEmitter returns the verbose per-cell progress printer (nil when
// quiet). Progress goes to stderr; stdout carries only the result, which
// is what keeps fleet and serial runs byte-comparable.
func jobEmitter(verbose bool) func(experiments.ProgressEvent) {
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
	res, rep, err := serve.ExecuteSpecFleet(ctx, spec, storeDir, o, jobEmitter(verbose))
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
