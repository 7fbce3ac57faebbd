package trace

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeCapture writes n records from a fresh executor to path and returns
// the records written.
func writeCapture(t *testing.T, path string, seed uint64, n int) []Record {
	t.Helper()
	w := testWorkload(t)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tw, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(w, seed)
	recs := make([]Record, n)
	for i := range recs {
		if err := e.Next(&recs[i]); err != nil {
			t.Fatal(err)
		}
		if err := tw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestExecutorReset(t *testing.T) {
	w := testWorkload(t)
	e := NewExecutor(w, 13)
	var first []Record
	var rec Record
	for i := 0; i < 5_000; i++ {
		if err := e.Next(&rec); err != nil {
			t.Fatal(err)
		}
		first = append(first, rec)
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if e.Instructions != 0 || e.Switches != 0 {
		t.Fatalf("Reset left counters: instr=%d switches=%d", e.Instructions, e.Switches)
	}
	for i := range first {
		if err := e.Next(&rec); err != nil {
			t.Fatal(err)
		}
		if rec != first[i] {
			t.Fatalf("record %d diverged after Reset", i)
		}
	}
}

func TestMemSource(t *testing.T) {
	recs := []Record{
		{Start: 0x1000, N: 3, Next: 0x100C},
		{Start: 0x100C, N: 2, Next: 0x1000},
	}
	finite := NewMemSource(recs, false)
	var rec Record
	for i := range recs {
		if err := finite.Next(&rec); err != nil {
			t.Fatal(err)
		}
		if rec != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if err := finite.Next(&rec); err != io.EOF {
		t.Fatalf("finite source returned %v after exhaustion, want EOF", err)
	}
	if err := finite.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := finite.Next(&rec); err != nil || rec != recs[0] {
		t.Fatalf("Reset did not rewind: %v %+v", err, rec)
	}

	loop := NewMemSource(recs, true)
	for i := 0; i < 7; i++ {
		if err := loop.Next(&rec); err != nil {
			t.Fatal(err)
		}
		if rec != recs[i%len(recs)] {
			t.Fatalf("looping record %d mismatch", i)
		}
	}
	if loop.Wraps != 3 {
		t.Errorf("Wraps = %d, want 3", loop.Wraps)
	}

	empty := NewMemSource(nil, true)
	if err := empty.Next(&rec); err != io.EOF {
		t.Errorf("empty looping source returned %v, want EOF", err)
	}
}

func TestRecordFrom(t *testing.T) {
	w := testWorkload(t)
	m, err := RecordFrom(NewExecutor(w, 5), 100)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(w, 5)
	var a, b Record
	for i := 0; i < 100; i++ {
		if err := m.Next(&a); err != nil {
			t.Fatal(err)
		}
		if err := e.Next(&b); err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("recorded record %d differs from live", i)
		}
	}
}

func TestFileSourceReplaysAndWraps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "core-000.trace")
	recs := writeCapture(t, path, 42, 500)

	src, err := OpenFileSource(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var rec Record
	for round := 0; round < 2; round++ {
		for i := range recs {
			if err := src.Next(&rec); err != nil {
				t.Fatal(err)
			}
			if rec != canonical(recs[i]) {
				t.Fatalf("round %d record %d diverged", round, i)
			}
		}
	}
	if src.Wraps != 1 {
		t.Errorf("Wraps = %d, want 1", src.Wraps)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if src.Records != 0 || src.Wraps != 0 {
		t.Errorf("Reset left counters: %d records, %d wraps", src.Records, src.Wraps)
	}
	if err := src.Next(&rec); err != nil || rec != canonical(recs[0]) {
		t.Fatalf("Reset did not rewind: %v", err)
	}
}

func TestFileSourceOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "core-000.trace")
	recs := writeCapture(t, path, 43, 300)

	src, err := OpenFileSource(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var rec Record
	if err := src.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if rec != canonical(recs[100]) {
		t.Fatalf("offset 100 started at the wrong record")
	}

	// An offset past the end wraps around the capture.
	wrapped, err := OpenFileSource(path, uint64(len(recs))+7)
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()
	if err := wrapped.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if rec != canonical(recs[7]) {
		t.Fatalf("wrapping offset started at the wrong record")
	}
}

func TestFileSourceRejectsEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.trace")
	f, err := os.Create(empty)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src, err := OpenFileSource(empty, 0)
	if err == nil {
		var rec Record
		if err := src.Next(&rec); err == nil {
			t.Error("empty trace yielded a record")
		}
		src.Close()
	}
	if _, err := OpenFileSource(empty, 3); err == nil {
		t.Error("empty trace accepted a record offset")
	}
	if _, err := OpenFileSource(filepath.Join(dir, "nope.trace"), 0); err == nil {
		t.Error("missing file opened")
	}
}

func TestOpenDirSourceStriping(t *testing.T) {
	dir := t.TempDir()
	recsA := writeCapture(t, filepath.Join(dir, "core-000.trace"), 1, 200)
	recsB := writeCapture(t, filepath.Join(dir, "core-001.trace"), 2, 200)

	var rec Record
	// Cores 0 and 1 get their own files from record 0.
	for core, recs := range [][]Record{recsA, recsB} {
		src, err := OpenDirSource(dir, core)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Next(&rec); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if rec != canonical(recs[0]) {
			t.Fatalf("core %d did not start its own file", core)
		}
	}

	// Core 2 shares file 0, striped DirStripeRecords in (mod file length).
	src, err := OpenDirSource(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if rec != canonical(recsA[DirStripeRecords%len(recsA)]) {
		t.Fatalf("striped core 2 started at the wrong record")
	}

	if _, err := OpenDirSource(dir, -1); err == nil {
		t.Error("negative core accepted")
	}
	if _, err := OpenDirSource(t.TempDir(), 0); err == nil {
		t.Error("directory without captures accepted")
	}
}

// TestTraceFilesTakesDirLiterally: the capture directory is a path, not a
// glob pattern — a name with pattern metacharacters is found, and a
// pattern-shaped path does not search the filesystem.
func TestTraceFilesTakesDirLiterally(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cap[1]")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeCapture(t, filepath.Join(dir, "core-001.trace"), 2, 10)
	writeCapture(t, filepath.Join(dir, "core-000.trace"), 1, 10)
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "old.trace"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := TraceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "core-000.trace"), filepath.Join(dir, "core-001.trace")}
	if !slices.Equal(got, want) {
		t.Errorf("TraceFiles(%q) = %v, want %v", dir, got, want)
	}

	if files, err := TraceFiles("/*/*"); err == nil || !strings.Contains(err.Error(), "no *.trace files") {
		t.Errorf(`TraceFiles("/*/*") = %v, %v; want a "no *.trace files" error`, files, err)
	}
}
