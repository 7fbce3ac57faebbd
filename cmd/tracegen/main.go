// Command tracegen generates synthetic workloads and traces for offline
// inspection and replay: it can dump workload statistics, write binary
// basic-block traces (single-file or per-core capture directories that
// `confluence-sim -trace` replays), summarize existing trace files, and
// self-check the codec end to end. -summarize reads a trace to its end and
// exits non-zero on a truncated or corrupt record.
//
// Usage:
//
//	tracegen -workload OLTP-DB2 -stats
//	tracegen -workload OLTP-DB2 -n 1000000 -o db2.trace
//	tracegen -workload OLTP-DB2 -n 1000000 -cores 8 -o db2-capture/
//	tracegen -summarize db2.trace
//	tracegen -workload OLTP-DB2 -roundtrip
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"confluence"
	"confluence/internal/isa"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

func main() {
	workload := flag.String("workload", "OLTP-DB2", "workload profile name")
	n := flag.Uint64("n", 1_000_000, "instructions to trace (per core with -cores)")
	out := flag.String("o", "", "output trace file (binary); a directory with -cores > 1")
	cores := flag.Int("cores", 1, "write a capture directory with one trace file per core, seeded like a live run")
	seed := flag.Uint64("seed", 1, "executor seed for single-file traces (differentiates cores)")
	showStats := flag.Bool("stats", false, "print workload statistics and exit")
	summarize := flag.String("summarize", "", "summarize an existing trace file and exit")
	roundtrip := flag.Bool("roundtrip", false, "self-check: write -n instructions through the codec and verify the records replay bit-identically")
	flag.Parse()

	if *summarize != "" {
		if err := summarizeFile(os.Stdout, *summarize); err != nil {
			fatal(err)
		}
		return
	}

	prof, ok := synth.ProfileByName(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	w, err := synth.Build(prof)
	if err != nil {
		fatal(err)
	}

	if *showStats {
		ss := w.Prog.StaticStats()
		fmt.Printf("workload:          %s\n", prof.Name)
		fmt.Printf("functions:         %d\n", len(w.Prog.Funcs()))
		fmt.Printf("basic blocks:      %d\n", len(w.Prog.ExecNodes()))
		fmt.Printf("footprint:         %d KB\n", w.Prog.FootprintBytes()>>10)
		fmt.Printf("64B code blocks:   %d\n", w.Prog.NumCacheBlocks())
		fmt.Printf("static br/block:   %.2f\n", ss.PerBlock)
		fmt.Printf("conditional frac:  %.2f\n", ss.CondFrac)
		fmt.Printf("request types:     %d\n", w.NumRequestTypes())
		return
	}

	if *roundtrip {
		if err := selfCheck(w, *seed, *n); err != nil {
			fatal(err)
		}
		return
	}

	if *out == "" {
		fatal(fmt.Errorf("need -o FILE (or -stats / -summarize / -roundtrip)"))
	}

	if *cores > 1 {
		if err := confluence.CaptureTrace(w, *out, *cores, *n); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d-core capture (%d instructions per core) to %s\n", *cores, *n, *out)
		return
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	exec := trace.NewExecutor(w, *seed)
	records, instructions, err := trace.Capture(f, exec, *n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d records (%d instructions, %d requests) to %s\n",
		records, instructions, exec.Requests, *out)
}

// selfCheck streams n instructions through Writer and Reader and verifies
// the decoded records match the executor's, field for field — a fast
// end-to-end proof that a capture written on this build replays exactly.
func selfCheck(w *synth.Workload, seed, n uint64) error {
	exec := trace.NewExecutor(w, seed)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return err
	}
	var want []trace.Record
	var rec trace.Record
	for exec.Instructions < n {
		if err := exec.Next(&rec); err != nil {
			return err
		}
		want = append(want, rec)
		if err := tw.Write(&rec); err != nil {
			return fmt.Errorf("roundtrip: encoding record %d: %w", len(want)-1, err)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	size := buf.Len()
	tr, err := trace.NewReader(&buf)
	if err != nil {
		return err
	}
	var got trace.Record
	for i := range want {
		if err := tr.Read(&got); err != nil {
			return fmt.Errorf("roundtrip: decoding record %d: %w", i, err)
		}
		if got != want[i] {
			return fmt.Errorf("roundtrip: record %d diverged:\n  wrote %+v\n  read  %+v", i, want[i], got)
		}
	}
	fmt.Printf("roundtrip OK: %d records (%d instructions, %d bytes) replay bit-identically\n",
		len(want), exec.Instructions, size)
	return nil
}

// summarizeFile writes path's summary to out, branch kinds in isa.BranchKind
// order. A truncated or corrupt record is an error, not a shorter trace.
func summarizeFile(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var rec trace.Record
	var records, instr, branches, taken, requests uint64
	kinds := make(map[isa.BranchKind]uint64)
	blocks := make(map[isa.Addr]bool)
	for {
		if err := tr.Read(&rec); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return fmt.Errorf("%s: record %d: %w", path, records, err)
		}
		records++
		instr += uint64(rec.N)
		if rec.ReqBoundary {
			requests++
		}
		if rec.Br.Kind.IsBranch() {
			branches++
			kinds[rec.Br.Kind]++
			if rec.Br.Taken {
				taken++
			}
		}
		blocks[isa.BlockOf(rec.Start)] = true
	}
	fmt.Fprintf(out, "records:      %d\n", records)
	fmt.Fprintf(out, "instructions: %d\n", instr)
	fmt.Fprintf(out, "requests:     %d\n", requests)
	fmt.Fprintf(out, "branches:     %d (taken %.1f%%)\n", branches, 100*float64(taken)/float64(max(branches, 1)))
	fmt.Fprintf(out, "code touched: %d KB\n", len(blocks)*isa.BlockBytes>>10)
	for k := isa.BrNone + 1; k.IsBranch(); k++ {
		if n := kinds[k]; n > 0 {
			fmt.Fprintf(out, "  %-9s %d\n", k, n)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
