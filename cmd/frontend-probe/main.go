// Command frontend-probe runs a handful of design points on one workload
// and prints per-design IPC and miss rates plus the cycle decomposition —
// the quickest way to see where a workload's cycles go.
//
// Usage:
//
//	frontend-probe -workload DSS-Qrys [-cores 8] [-instr 1500000] [-workers N] [-intra-workers N] [-store DIR]
//	frontend-probe -trace CAPTURE_DIR [-workload NAME] [-cores 8] [-instr N]
//
// With -trace, cores replay the capture directory (written by `tracegen
// -cores`) instead of executing the workload live; -workload then names the
// capture's source workload to restore its program image and calibration
// (omit it for external captures).
package main

import (
	"flag"
	"fmt"
	"os"

	"confluence"
	"confluence/internal/cliutil"
	"confluence/internal/core"
	"confluence/internal/experiments"
	"confluence/internal/store"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// isFlagSet reports whether the named flag was given on the command line
// (as opposed to holding its default).
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	workload := flag.String("workload", "OLTP-DB2", "workload profile name")
	cores := flag.Int("cores", 8, "CMP width")
	instr := flag.Uint64("instr", 1_500_000, "per-core instructions (warmup = measure)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = REPRO_WORKERS or GOMAXPROCS)")
	intraWorkers := flag.Int("intra-workers", 0, "fast-forward workers inside each simulation (0/1 = serial)")
	traceDir := flag.String("trace", "", "replay a capture directory instead of executing the workload live")
	storeDir := flag.String("store", "", "durable result store directory: repeat probes of the same cell are served from disk")
	sample := flag.Bool("sample", false, "SMARTS-style sampled simulation: fast-forward warm-up + periodic detailed windows (~10x fewer detailed instructions)")
	flag.Parse()

	var w *synth.Workload
	if *traceDir != "" && !isFlagSet("workload") {
		// External capture: no program image, default calibration.
		tw, err := confluence.WorkloadFromTrace(*traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frontend-probe:", err)
			os.Exit(1)
		}
		w = tw
	} else {
		prof, ok := synth.ProfileByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "frontend-probe: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		var err error
		w, err = synth.Build(prof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frontend-probe:", err)
			os.Exit(1)
		}
		w.TraceDir = *traceDir // empty for live execution
	}

	if w.Prog != nil {
		ss := w.Prog.StaticStats()
		fmt.Printf("%s: %d funcs, %dKB, %.2f branches/block\n",
			w.Prof.Name, len(w.Prog.Funcs), w.Prog.FootprintBytes()>>10, ss.PerBlock)
	} else {
		fmt.Printf("%s: replaying %s (no program image)\n", w.Prof.Name, *traceDir)
	}

	// Where do the instructions go? Histogram by call-graph layer, plus the
	// dynamic working-set rate (distinct new 64B blocks per kilo-instr over
	// a sliding window) — the quantity that determines L1-I pressure. The
	// stream is the capture when replaying, the live walk otherwise.
	if w.Prog != nil {
		var src trace.Source
		if w.TraceDir != "" {
			fs, err := trace.OpenDirSource(w.TraceDir, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "frontend-probe:", err)
				os.Exit(1)
			}
			defer fs.Close()
			src = fs
		} else {
			src = trace.NewExecutor(w, 0xd1a9)
		}
		var rec trace.Record
		layerInstr := map[int]uint64{}
		seen := map[uint64]uint64{} // block -> last instruction count seen
		var reuseFar, total uint64
		for total < 2_000_000 {
			if err := src.Next(&rec); err != nil {
				fmt.Fprintln(os.Stderr, "frontend-probe:", err)
				os.Exit(1)
			}
			total += uint64(rec.N)
			if bb := w.Prog.BlockAt(rec.Start); bb != nil {
				layerInstr[bb.Func.Layer] += uint64(rec.N)
			}
			blk := uint64(rec.Start) >> 6
			if last, ok := seen[blk]; !ok || total-last > 100_000 {
				reuseFar++ // first touch or long-reuse-distance touch
			}
			seen[blk] = total
		}
		fmt.Printf("instr by layer: ")
		for l := 0; l < w.Prof.Layers; l++ {
			fmt.Printf("L%d=%.0f%% ", l, 100*float64(layerInstr[l])/float64(total))
		}
		fmt.Printf("\nfar-reuse blocks/kilo-instr: %.1f (L1-I pressure proxy)\n\n",
			float64(reuseFar)/float64(total)*1000)
	}

	designs := []core.DesignPoint{
		core.Base1K, core.FDP1K, core.PhantomFDP, core.TwoLevelFDP,
		core.TwoLevelSHIFT, core.Confluence, core.Ideal,
	}
	fmt.Printf("%-18s %7s %8s %8s | per kilo-instruction: %7s %7s %7s %7s\n",
		"design", "IPC", "btbMPKI", "l1iMPKI", "L1Istall", "misfet", "bubble", "resolve")

	// Fan the design points out across the grid scheduler, then print in
	// the fixed design order above.
	ctx, stop := cliutil.InterruptContext()
	defer stop()
	sc := experiments.Scale{Name: "probe", Cores: *cores, Warmup: *instr, Measure: *instr}
	r := experiments.NewRunnerFor(sc, []*synth.Workload{w})
	r.Workers = *workers
	r.IntraWorkers = *intraWorkers
	if *storeDir != "" {
		r.Store = store.Open(*storeDir)
	}
	if *sample {
		r.Sampling = core.AutoSampling(*instr)
	}
	if err := r.Grid(designs).Execute(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "frontend-probe:", err)
		os.Exit(1)
	}
	for _, dp := range designs {
		st, err := r.RunDefault(w, dp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frontend-probe:", err)
			os.Exit(1)
		}
		k := float64(st.Instructions) / 1000
		fmt.Printf("%-18s %7.3f %8.1f %8.1f | %29.1f %7.1f %7.1f %7.1f\n",
			dp, st.IPC(), st.BTBMPKI(), st.L1IMPKI(),
			st.L1IStallCycles/k, st.MisfetchCycles/k, st.BubbleCycles/k, st.ResolveCycles/k)
	}
}
