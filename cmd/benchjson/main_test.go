package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func rec(pkg, name string, iters int64, ns float64) Record {
	return Record{Pkg: pkg, Name: name, Iterations: iters, Metrics: map[string]float64{"ns/op": ns}}
}

func TestMergeRecordsMedianOfRuns(t *testing.T) {
	// Five runs of one benchmark, one of them a 10x spike: the median must
	// ignore the spike entirely (the property the snapshot gate relies on).
	in := []Record{
		rec("p", "BenchmarkX", 1, 100),
		rec("p", "BenchmarkX", 1, 105),
		rec("p", "BenchmarkX", 1, 1000), // spike
		rec("p", "BenchmarkX", 1, 98),
		rec("p", "BenchmarkX", 1, 102),
	}
	out := mergeRecords(in)
	if len(out) != 1 {
		t.Fatalf("got %d records, want 1", len(out))
	}
	if got := out[0].Metrics["ns/op"]; got != 102 {
		t.Errorf("median ns/op = %v, want 102", got)
	}
	if out[0].Iterations != 5 {
		t.Errorf("iterations = %d, want 5 (summed)", out[0].Iterations)
	}
}

func TestMergeRecordsEvenCountAveragesMiddlePair(t *testing.T) {
	in := []Record{
		rec("p", "BenchmarkX", 1, 100),
		rec("p", "BenchmarkX", 1, 110),
		rec("p", "BenchmarkX", 1, 90),
		rec("p", "BenchmarkX", 1, 400),
	}
	if got := mergeRecords(in)[0].Metrics["ns/op"]; got != 105 {
		t.Errorf("even-count median = %v, want 105", got)
	}
}

func TestMergeRecordsPreservesOrderAndSingles(t *testing.T) {
	in := []Record{
		rec("p", "BenchmarkB", 3, 7),
		rec("q", "BenchmarkA", 1, 50),
		rec("q", "BenchmarkA", 1, 60),
		rec("p", "BenchmarkC", 2, 9),
	}
	out := mergeRecords(in)
	if len(out) != 3 {
		t.Fatalf("got %d records, want 3", len(out))
	}
	names := []string{benchKey(out[0]), benchKey(out[1]), benchKey(out[2])}
	want := []string{"p.BenchmarkB", "q.BenchmarkA", "p.BenchmarkC"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("order = %v, want %v", names, want)
	}
	// Single-run records pass through untouched, including their metrics map.
	if !reflect.DeepEqual(out[0], in[0]) {
		t.Errorf("single-run record mutated: %+v != %+v", out[0], in[0])
	}
	if got := out[1].Metrics["ns/op"]; got != 55 {
		t.Errorf("merged ns/op = %v, want 55", got)
	}
}

func TestMergeRecordsSameNameDifferentPkg(t *testing.T) {
	in := []Record{
		rec("p", "BenchmarkX", 1, 10),
		rec("q", "BenchmarkX", 1, 90),
	}
	if out := mergeRecords(in); len(out) != 2 {
		t.Fatalf("records from different packages merged: %+v", out)
	}
}

func TestParseBenchStripsGOMAXPROCSSuffix(t *testing.T) {
	r, ok := parseBench("BenchmarkX-8  10  123.5 ns/op  4 B/op  1 allocs/op")
	if !ok {
		t.Fatal("parseBench failed")
	}
	if r.Name != "BenchmarkX" {
		t.Errorf("name = %q, want BenchmarkX", r.Name)
	}
	if r.Iterations != 10 || r.Metrics["ns/op"] != 123.5 || r.Metrics["allocs/op"] != 1 {
		t.Errorf("unexpected record: %+v", r)
	}
}

func TestParseCPUTimes(t *testing.T) {
	stat := "cpu  135525 7 8497 1220343 2389 0 675 1655 0 0\ncpu0 67736 0 4377 610161 1081 0 361 809 0 0\nintr 1 2 3\n"
	got, ok := parseCPUTimes(strings.NewReader(stat))
	if !ok {
		t.Fatal("parseCPUTimes rejected a /proc/stat")
	}
	want := cpuTimes{135525, 7, 8497, 1220343, 2389, 0, 675, 1655}
	if got != want {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{
		"",
		"cpu0 1 2 3 4 5 6 7 8\n",         // not the aggregate line
		"cpu  1 2 3 4 5 6 7\n",           // no steal column (old kernel)
		"cpu  1 2 3 4 5 6 7 x\n",         // not a counter
		"intr 1 2 3 4 5 6 7 8 9 10 11\n", // another file
	} {
		if _, ok := parseCPUTimes(strings.NewReader(bad)); ok {
			t.Errorf("parseCPUTimes accepted %q", bad)
		}
	}
}

func TestStealPct(t *testing.T) {
	a := cpuTimes{100, 0, 50, 800, 10, 0, 0, 40}
	b := cpuTimes{160, 0, 60, 900, 10, 0, 0, 70} // 200 ticks, 30 stolen
	if got, ok := stealPct(a, b); !ok || got != 15 {
		t.Errorf("stealPct = %v, %v; want 15, true", got, ok)
	}
	if _, ok := stealPct(a, a); ok {
		t.Error("no elapsed time reported a share")
	}
	if _, ok := stealPct(b, a); ok {
		t.Error("counters going backwards reported a share")
	}
}

// TestSnapshotsWithoutHostNoiseLoad: snapshots written before the host
// noise fields existed still load, and -compare prints their noise as
// unknown; new snapshots round-trip the fields.
func TestSnapshotsWithoutHostNoiseLoad(t *testing.T) {
	old, err := loadSnapshot("../../BENCH_pr20_after.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Benchmarks) == 0 || old.GOMAXPROCS != 0 || old.StealPct != nil {
		t.Fatalf("old snapshot loaded as %d benchmarks, gomaxprocs %d, steal %v", len(old.Benchmarks), old.GOMAXPROCS, old.StealPct)
	}
	if got := hostNoise(old); got != "gomaxprocs -, cpu steal -" {
		t.Errorf("old snapshot's noise prints %q", got)
	}

	steal := 18.25
	path := filepath.Join(t.TempDir(), "new.json")
	data, err := json.Marshal(Output{GOMAXPROCS: 2, StealPct: &steal, Benchmarks: []Record{rec("p", "BenchmarkX", 1, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cur, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hostNoise(cur); got != "gomaxprocs 2, cpu steal 18.2%" {
		t.Errorf("new snapshot's noise prints %q", got)
	}
	if code := runCompare("../../BENCH_pr20_after.json", path, 10, 0); code != 0 {
		t.Errorf("comparing an old and a new snapshot exited %d", code)
	}
}
