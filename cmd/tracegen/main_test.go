package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"confluence/internal/isa"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// writeTrace captures a short single-file trace of a reduced workload.
func writeTrace(t *testing.T) string {
	t.Helper()
	p := synth.OLTPDB2()
	p.Functions = 300
	p.RequestTypes = 4
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.Capture(f, trace.NewExecutor(w, 1), 50_000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSummarizeDeterministic: two summaries of one file are
// byte-identical, with the per-kind lines in isa.BranchKind order.
func TestSummarizeDeterministic(t *testing.T) {
	path := writeTrace(t)
	var a, b bytes.Buffer
	if err := summarizeFile(&a, path); err != nil {
		t.Fatal(err)
	}
	if err := summarizeFile(&b, path); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	var kinds []isa.BranchKind
	for _, line := range strings.Split(a.String(), "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		name := strings.Fields(line)[0]
		for k := isa.BrNone + 1; k.IsBranch(); k++ {
			if k.String() == name {
				kinds = append(kinds, k)
			}
		}
	}
	if len(kinds) < 2 {
		t.Fatalf("summary lists %d branch kinds, want several:\n%s", len(kinds), a.String())
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i] <= kinds[i-1] {
			t.Errorf("branch kinds out of order: %v", kinds)
		}
	}
}

// TestSummarizeTruncatedFails: a trace cut mid-record is an error, not a
// plausible summary of a shorter trace.
func TestSummarizeTruncatedFails(t *testing.T) {
	path := writeTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(cut, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarizeFile(&out, cut); err == nil {
		t.Fatalf("truncated trace summarized without error:\n%s", out.String())
	}
}
