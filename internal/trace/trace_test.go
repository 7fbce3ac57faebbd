package trace

import (
	"math"
	"slices"
	"testing"

	"confluence/internal/isa"
	"confluence/internal/program"
	"confluence/internal/synth"
)

func testWorkload(t *testing.T) *synth.Workload {
	t.Helper()
	p := synth.OLTPDB2()
	p.Functions = 320
	p.RequestTypes = 4
	p.Concurrency = 4
	p.QuantumInstr = 800
	p.Seed = 77
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestExecutorProducesValidRecords(t *testing.T) {
	w := testWorkload(t)
	e := NewExecutor(w, 1)
	var rec Record
	for i := 0; i < 50_000; i++ {
		e.Next(&rec)
		ni := w.Prog.NodeAt(rec.Start)
		if ni < 0 {
			t.Fatalf("record %d: no basic block at %#x", i, rec.Start)
		}
		bb := &w.Prog.ExecNodes()[ni]
		if rec.N != int(bb.NInstr) {
			t.Fatalf("record %d: N=%d, block has %d", i, rec.N, bb.NInstr)
		}
		if rec.Br.Kind.IsBranch() && rec.Br.PC != bb.BrPC() {
			t.Fatalf("record %d: branch PC %#x, want %#x", i, rec.Br.PC, bb.BrPC())
		}
		if rec.Br.Kind != bb.BrKind {
			t.Fatalf("record %d: branch kind %v, block has %v", i, rec.Br.Kind, bb.BrKind)
		}
	}
}

func TestExecutorSuccessorConsistency(t *testing.T) {
	w := testWorkload(t)
	e := NewExecutor(w, 2)
	var rec, next Record
	e.Next(&rec)
	for i := 0; i < 50_000; i++ {
		e.Next(&next)
		// The next executed block must be the one the previous record
		// names — including across context switches, because rec.Next is
		// patched at yield points.
		if next.Start != rec.Next {
			t.Fatalf("step %d: executed %#x, previous record promised %#x",
				i, next.Start, rec.Next)
		}
		// And within a context, a non-boundary record follows its branch.
		if !next.ReqBoundary && rec.Br.Kind.IsBranch() && rec.Br.Taken {
			if rec.Br.Target != next.Start {
				t.Fatalf("step %d: taken target %#x but executed %#x",
					i, rec.Br.Target, next.Start)
			}
		}
		rec = next
	}
}

func TestExecutorDeterminism(t *testing.T) {
	w := testWorkload(t)
	a, b := NewExecutor(w, 7), NewExecutor(w, 7)
	var ra, rb Record
	for i := 0; i < 20_000; i++ {
		a.Next(&ra)
		b.Next(&rb)
		if ra != rb {
			t.Fatalf("step %d: executors with equal seeds diverged", i)
		}
	}
	c := NewExecutor(w, 8)
	diverged := false
	var rc Record
	a2 := NewExecutor(w, 7)
	for i := 0; i < 5_000; i++ {
		a2.Next(&ra)
		c.Next(&rc)
		if ra != rc {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds never diverged")
	}
}

func TestExecutorRequestsProgress(t *testing.T) {
	w := testWorkload(t)
	e := NewExecutor(w, 3)
	var rec Record
	boundaries := 0
	for e.Instructions < 400_000 {
		e.Next(&rec)
		if rec.ReqBoundary {
			boundaries++
		}
	}
	if e.Requests < 5 {
		t.Errorf("only %d requests in 400K instructions", e.Requests)
	}
	if boundaries == 0 {
		t.Error("no request boundaries marked")
	}
}

func TestExecutorContextSwitching(t *testing.T) {
	w := testWorkload(t) // concurrency 4, quantum 800
	e := NewExecutor(w, 4)
	var rec Record
	for e.Instructions < 200_000 {
		e.Next(&rec)
	}
	if e.Switches == 0 {
		t.Fatal("no context switches with concurrency > 1")
	}
	// Rough rate: about one switch per quantum.
	perSwitch := float64(e.Instructions) / float64(e.Switches)
	if perSwitch < 200 || perSwitch > 5000 {
		t.Errorf("switch every %.0f instructions; quantum is %d", perSwitch, w.Prof.QuantumInstr)
	}
}

func TestSingleContextNeverSwitches(t *testing.T) {
	p := synth.OLTPDB2()
	p.Functions = 320
	p.RequestTypes = 4
	p.Concurrency = 1
	p.Seed = 9
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(w, 1)
	var rec Record
	for e.Instructions < 100_000 {
		e.Next(&rec)
	}
	if e.Switches != 0 {
		t.Errorf("%d switches with a single context", e.Switches)
	}
}

func TestLoopTripsQuasiDeterministic(t *testing.T) {
	// Single context: interleaved connections would overlap executions of
	// the same loop site and garble the per-execution counting below.
	p := synth.OLTPDB2()
	p.Functions = 320
	p.RequestTypes = 4
	p.Concurrency = 1
	p.Seed = 77
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// Find a loop site and count per-execution trips over a long run.
	var site *program.ExecNode
	for i := range w.Prog.ExecNodes() {
		if n := &w.Prog.ExecNodes()[i]; n.Loop == program.LoopBackEdge && n.TripMean >= 4 {
			site = n
			break
		}
	}
	if site == nil {
		t.Skip("no back-edge loop in test workload")
	}
	e := NewExecutor(w, 5)
	var rec Record
	trips := 0
	var counts []int
	for i := 0; i < 3_000_000 && len(counts) < 50; i++ {
		e.Next(&rec)
		if rec.Br.PC == site.BrPC() {
			if rec.Br.Taken {
				trips++
			} else {
				counts = append(counts, trips+1)
				trips = 0
			}
		}
	}
	if len(counts) < 5 {
		t.Skipf("loop site executed only %d times", len(counts))
	}
	mean := 0.0
	for _, c := range counts {
		mean += float64(c)
	}
	mean /= float64(len(counts))
	if math.Abs(mean-float64(site.TripMean)) > 1.5 {
		t.Errorf("observed mean trips %.1f, site mean %d", mean, site.TripMean)
	}
	for _, c := range counts {
		if c < int(site.TripMean)-1 || c > int(site.TripMean)+1 {
			t.Errorf("trip count %d strays beyond ±1 of %d", c, site.TripMean)
		}
	}
}

func TestStableIndexIsStable(t *testing.T) {
	for pc := uint64(0); pc < 100; pc++ {
		a := stableIndex(pc, 3, 7)
		b := stableIndex(pc, 3, 7)
		if a != b {
			t.Fatal("stableIndex not deterministic")
		}
		if a < 0 || a >= 7 {
			t.Fatalf("stableIndex out of range: %d", a)
		}
	}
	// Different request types should (usually) select different slots.
	diff := 0
	for pc := uint64(0); pc < 100; pc++ {
		if stableIndex(pc*64, 0, 8) != stableIndex(pc*64, 1, 8) {
			diff++
		}
	}
	if diff < 50 {
		t.Errorf("request type barely affects dispatch: %d/100 differ", diff)
	}
}

func TestSkip(t *testing.T) {
	w := testWorkload(t)
	e := NewExecutor(w, 11)
	e.Skip(10_000)
	if e.Instructions < 10_000 {
		t.Errorf("Skip advanced only %d instructions", e.Instructions)
	}
}

func TestCallStackBalance(t *testing.T) {
	w := testWorkload(t)
	e := NewExecutor(w, 6)
	var rec Record
	// Depth per context never exceeds the layer count (no recursion).
	maxDepth := w.Prof.Layers + 1
	for i := 0; i < 200_000; i++ {
		e.Next(&rec)
		for _, c := range e.ctxs {
			if len(c.stack) > maxDepth {
				t.Fatalf("stack depth %d exceeds layers %d", len(c.stack), maxDepth)
			}
		}
	}
}

func TestIndirectTargetsComeFromTable(t *testing.T) {
	w := testWorkload(t)
	e := NewExecutor(w, 12)
	var rec Record
	checked := 0
	for i := 0; i < 300_000 && checked < 500; i++ {
		e.Next(&rec)
		if rec.Br.Kind != isa.BrIndirect && rec.Br.Kind != isa.BrIndCall {
			continue
		}
		nodes := w.Prog.ExecNodes()
		var table []isa.Addr
		for _, tn := range w.Prog.IndirectTargets(&nodes[w.Prog.NodeAt(rec.Start)]) {
			table = append(table, nodes[tn].Addr)
		}
		if !slices.Contains(table, rec.Br.Target) {
			t.Fatalf("indirect at %#x resolved to %#x, not in table %v",
				rec.Br.PC, rec.Br.Target, table)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no indirect branches executed")
	}
}
