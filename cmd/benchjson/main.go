// Command benchjson converts `go test -bench` output on stdin into a stable
// JSON document on stdout, so benchmark runs can be committed and diffed
// across PRs (BENCH_pr3_before.json / BENCH_pr3_after.json and successors).
//
// Usage:
//
//	go test -run '^$' -bench=. -benchtime=1x -benchmem ./... | benchjson > bench.json
//	benchjson -compare before.json after.json
//
// Every benchmark line becomes one record carrying the iteration count and
// all reported metrics (ns/op, B/op, allocs/op, and any custom b.ReportMetric
// units such as Minstr/s). Non-benchmark lines are ignored, so the tool
// tolerates -v logs and table dumps interleaved with results. Repeated runs
// of the same benchmark (from `go test -count=N`) collapse into one record
// per benchmark holding the per-metric median across runs, so committed
// snapshots shrug off one-run scheduler spikes on noisy shared machines.
//
// Each snapshot also records the host's noise: the GOMAXPROCS the tool
// runs with and the share of CPU time the hypervisor stole from this
// machine between the tool's start and the end of its input, read from
// /proc/stat (the steal share is omitted where that file is absent). Piping `go
// test` straight into the tool makes that window the benchmark run
// itself. A stream that reports a failed test or package (a line
// starting with FAIL) exits non-zero, so a pipe cannot hide the failure.
//
// With -compare, the tool diffs two snapshots instead: it prints both
// snapshots' host noise, then a per-benchmark ns/op delta table
// (benchmarks present in only one snapshot are listed but not judged) and
// exits non-zero when any common benchmark regressed by more than 10% —
// the gate `make bench-compare` runs over the committed
// BENCH_pr*_{before,after}.json pairs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result line.
type Record struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Output is the document benchjson emits.
type Output struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// StealPct is the percentage of all CPU time stolen from the host
	// while the stream ran; nil where /proc/stat is unreadable.
	StealPct   *float64 `json:"steal_pct,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two snapshots: benchjson -compare before.json after.json")
	regress := flag.Float64("regress", 10, "with -compare, fail on ns/op regressions above this percentage")
	floor := flag.Float64("floor", 0, "with -compare, gate only benchmarks whose before ns/op is at least this (sub-floor regressions print as 'noisy?' — one-iteration snapshots cannot time micro-benchmarks reliably)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: before.json after.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *regress, *floor))
	}

	out := Output{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	start, startOK := readCPUTimes("/proc/stat")
	pkg := ""
	failed := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "FAIL"):
			failed = true
		case strings.HasPrefix(line, "goos:"):
			out.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Pkg = pkg
				out.Benchmarks = append(out.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: the benchmark run reported a failure (a FAIL line); no snapshot written")
		os.Exit(1)
	}
	if end, ok := readCPUTimes("/proc/stat"); ok && startOK {
		if pct, ok := stealPct(start, end); ok {
			out.StealPct = &pct
		}
	}
	out.Benchmarks = mergeRecords(out.Benchmarks)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// mergeRecords collapses repeated runs of the same benchmark (one line per
// `go test -count=N` run) into a single record per benchmark, taking the
// per-metric median across runs and summing iterations to report total
// sampling effort. The median is what makes committed snapshots gate-stable
// on noisy shared machines: a scheduler or cache spike contaminates one run,
// never the middle of five, whereas a mean carries a share of every spike
// straight into bench-compare's regression judgment. Input order of first
// appearance is preserved; single-run benchmarks pass through untouched.
func mergeRecords(recs []Record) []Record {
	runs := map[string][]Record{}
	var order []string
	for _, r := range recs {
		k := benchKey(r)
		if _, seen := runs[k]; !seen {
			order = append(order, k)
		}
		runs[k] = append(runs[k], r)
	}
	out := make([]Record, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		merged := Record{Pkg: rs[0].Pkg, Name: rs[0].Name, Metrics: map[string]float64{}}
		vals := map[string][]float64{}
		for _, r := range rs {
			merged.Iterations += r.Iterations
			for unit, v := range r.Metrics {
				vals[unit] = append(vals[unit], v)
			}
		}
		for unit, vs := range vals {
			sort.Float64s(vs)
			if n := len(vs); n%2 == 1 {
				merged.Metrics[unit] = vs[n/2]
			} else {
				merged.Metrics[unit] = (vs[n/2-1] + vs[n/2]) / 2
			}
		}
		out = append(out, merged)
	}
	return out
}

// cpuTimes are the aggregate "cpu" counters of /proc/stat, in clock
// ticks: user, nice, system, idle, iowait, irq, softirq, steal (guest
// time is already counted in user).
type cpuTimes [8]uint64

// readCPUTimes reads the aggregate CPU counters from a /proc/stat file.
func readCPUTimes(path string) (cpuTimes, bool) {
	f, err := os.Open(path)
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	return parseCPUTimes(f)
}

// parseCPUTimes parses the first line of /proc/stat ("cpu  user nice
// system idle iowait irq softirq steal ..."). Kernels too old to report
// steal, or any other shape, report ok = false.
func parseCPUTimes(r io.Reader) (cpuTimes, bool) {
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil && line == "" {
		return cpuTimes{}, false
	}
	f := strings.Fields(line)
	var t cpuTimes
	if len(f) < 1+len(t) || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	for i := range t {
		v, err := strconv.ParseUint(f[1+i], 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t[i] = v
	}
	return t, true
}

// stealPct is the percentage of the CPU time that passed between two
// readings that the hypervisor stole; ok = false when no time passed or
// the counters went backwards.
func stealPct(a, b cpuTimes) (float64, bool) {
	var total uint64
	for i := range a {
		if b[i] < a[i] {
			return 0, false
		}
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0, false
	}
	return 100 * float64(b[7]-a[7]) / float64(total), true
}

// hostNoise describes a snapshot's recorded host noise for -compare.
func hostNoise(o Output) string {
	procs, steal := "-", "-"
	if o.GOMAXPROCS > 0 {
		procs = strconv.Itoa(o.GOMAXPROCS)
	}
	if o.StealPct != nil {
		steal = fmt.Sprintf("%.1f%%", *o.StealPct)
	}
	return fmt.Sprintf("gomaxprocs %s, cpu steal %s", procs, steal)
}

// loadSnapshot reads a benchjson document from disk.
func loadSnapshot(path string) (Output, error) {
	var out Output
	data, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// benchKey identifies a benchmark across snapshots.
func benchKey(r Record) string {
	if r.Pkg == "" {
		return r.Name
	}
	return r.Pkg + "." + r.Name
}

// runCompare prints the per-benchmark ns/op delta table and returns the
// process exit code: 0 clean, 1 when any common benchmark at or above the
// gating floor regressed by more than limit percent.
func runCompare(beforePath, afterPath string, limit, floor float64) int {
	before, err := loadSnapshot(beforePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	after, err := loadSnapshot(afterPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	base := make(map[string]Record, len(before.Benchmarks))
	for _, r := range before.Benchmarks {
		base[benchKey(r)] = r
	}
	keys := make([]string, 0, len(after.Benchmarks))
	cur := make(map[string]Record, len(after.Benchmarks))
	for _, r := range after.Benchmarks {
		k := benchKey(r)
		keys = append(keys, k)
		cur[k] = r
	}
	sort.Strings(keys)

	fmt.Printf("before: %s\nafter:  %s\n\n", hostNoise(before), hostNoise(after))
	fmt.Printf("%-64s %14s %14s %8s\n", "benchmark", "before ns/op", "after ns/op", "delta")
	regressions := 0
	for _, k := range keys {
		a := cur[k]
		ans, aok := a.Metrics["ns/op"]
		b, inBase := base[k]
		bns, bok := b.Metrics["ns/op"]
		switch {
		case !inBase || !bok:
			if aok {
				fmt.Printf("%-64s %14s %14.1f %8s\n", k, "-", ans, "new")
			}
		case !aok:
			fmt.Printf("%-64s %14.1f %14s %8s\n", k, bns, "-", "gone")
		case bns == 0:
			fmt.Printf("%-64s %14.1f %14.1f %8s\n", k, bns, ans, "n/a")
		default:
			delta := 100 * (ans - bns) / bns
			mark := ""
			if delta > limit {
				if bns >= floor {
					mark = "  << regression"
					regressions++
				} else {
					mark = "  (noisy?)"
				}
			}
			fmt.Printf("%-64s %14.1f %14.1f %+7.1f%%%s\n", k, bns, ans, delta, mark)
		}
	}
	// Benchmarks that vanished entirely (in before, not in after).
	var gone []string
	for k := range base {
		if _, ok := cur[k]; !ok {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		fmt.Printf("%-64s %14.1f %14s %8s\n", k, base[k].Metrics["ns/op"], "-", "gone")
	}
	if regressions > 0 {
		fmt.Printf("\n%d benchmark(s) regressed more than %.0f%%\n", regressions, limit)
		return 1
	}
	return 0
}

// parseBench decodes "BenchmarkName-8  10  123 ns/op  4 B/op  1 allocs/op  9.9 unit".
func parseBench(line string) (Record, bool) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	// Strip the trailing -GOMAXPROCS suffix so snapshots from machines with
	// different core counts stay diffable by name.
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Record{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Record{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}
