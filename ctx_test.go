package confluence

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"confluence/internal/trace"
)

// trackedSource wraps a real executor and records Close calls, so the
// leak-check tests can audit that every opened source is released on
// every error path.
type trackedSource struct {
	trace.Source
	mu     *sync.Mutex
	closed *[]int
	id     int
}

func (s *trackedSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	*s.closed = append(*s.closed, s.id)
	return nil
}

// trackingProvider opens tracked sources for w, failing at core failAt
// (-1 never fails). It returns the provider plus accessors for how many
// sources were opened and which were closed.
func trackingProvider(w *Workload, failAt int) (prov func(int) (trace.Source, error), opened func() int, closed func() []int) {
	var mu sync.Mutex
	var openedIDs []int
	var closedIDs []int
	prov = func(i int) (trace.Source, error) {
		if i == failAt {
			return nil, fmt.Errorf("injected open failure for core %d", i)
		}
		mu.Lock()
		openedIDs = append(openedIDs, i)
		mu.Unlock()
		return &trackedSource{
			Source: trace.NewExecutor(w, trace.CoreSeed(w.Prof.Seed, i)),
			mu:     &mu, closed: &closedIDs, id: i,
		}, nil
	}
	opened = func() int { mu.Lock(); defer mu.Unlock(); return len(openedIDs) }
	closed = func() []int { mu.Lock(); defer mu.Unlock(); return append([]int(nil), closedIDs...) }
	return prov, opened, closed
}

// TestAssemblyErrorClosesSources audits core.NewMixSystem's early
// returns: when assembly fails partway through the per-core loop, the
// sources already opened for earlier cores must be closed.
func TestAssemblyErrorClosesSources(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	prov, opened, closed := trackingProvider(w, 2)
	cfg := Config{
		Workload: w, Design: Base1K, Cores: 4,
		NoWarmup: true, MeasureInstr: 1000,
	}
	cfg.Options.Sources = prov
	if _, err := Run(cfg); err == nil {
		t.Fatal("assembly with a failing source provider succeeded")
	}
	if opened() != 2 {
		t.Fatalf("provider opened %d sources before the injected failure, want 2", opened())
	}
	if got := closed(); len(got) != 2 {
		t.Errorf("assembly failure closed sources %v, want both already-opened sources", got)
	}
}

// TestRunErrorClosesSources audits Run's own error paths: once assembly
// succeeds, a failed (here: cancelled) simulation must still release
// every source on the way out.
func TestRunErrorClosesSources(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	prov, opened, closed := trackingProvider(w, -1)
	cfg := Config{
		Workload: w, Design: Base1K, Cores: 2,
		NoWarmup: true, MeasureInstr: 1000,
	}
	cfg.Options.Sources = prov
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx under a cancelled context returned %v", err)
	}
	if opened() != 2 {
		t.Fatalf("provider opened %d sources, want 2", opened())
	}
	if got := closed(); len(got) != 2 {
		t.Errorf("failed run closed sources %v, want all %d", got, opened())
	}
}

// TestRunCtxCancelMidRun cancels a simulation that would otherwise run
// for hours and expects the engine to notice within a batch of basic
// blocks, not instruction targets.
func TestRunCtxCancelMidRun(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)

	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, Config{
			Workload: w, Design: Confluence, Cores: 2,
			NoWarmup: true, MeasureInstr: 4_000_000_000,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled simulation did not stop")
	}
}

// TestRunCtxCompletedRunMatchesRun pins the other half of the contract:
// attaching a context must not perturb a run that completes.
func TestRunCtxCompletedRunMatchesRun(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload: w, Design: Confluence, Cores: 2,
		WarmupInstr: 20_000, MeasureInstr: 50_000,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *plain.Stats != *withCtx.Stats {
		t.Errorf("RunCtx perturbed a completed run:\nRun:    %+v\nRunCtx: %+v", plain.Stats, withCtx.Stats)
	}
}

// TestCaptureTraceCtxCancel cancels a capture and checks both the error
// and that no truncated (unreplayable) trace file is left behind.
func TestCaptureTraceCtxCancel(t *testing.T) {
	w, err := BuildWorkload("DSS-Qrys")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := CaptureTraceCtx(ctx, w, dir, 2, 100_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled capture returned %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("cancelled capture left %s behind", e.Name())
	}
}
