package synth

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"confluence/internal/isa"
	"confluence/internal/program"
)

// testProfile is a small, fast-to-build workload for tests.
func testProfile() Profile {
	p := base()
	p.Name = "test"
	p.Seed = 42
	p.Functions = 320
	p.MeanBlocksPerFn = 9
	p.MeanBlockLen = 3.0
	p.RequestTypes = 4
	p.Concurrency = 4
	p.QuantumInstr = 800
	return p
}

func buildTest(t *testing.T) *Workload {
	t.Helper()
	w, err := Build(testProfile())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w
}

func TestBuildAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workload builds in -short mode")
	}
	for _, prof := range ExtendedProfiles() {
		w, err := Build(prof)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if w.Prog.FootprintBytes() < 200<<10 {
			t.Errorf("%s: footprint %d KB is too small to stress a 32KB L1-I",
				prof.Name, w.Prog.FootprintBytes()>>10)
		}
		if got := w.NumRequestTypes(); got != prof.RequestTypes {
			t.Errorf("%s: %d request types, want %d", prof.Name, got, prof.RequestTypes)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range ExtendedProfiles() {
		got, ok := ProfileByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Errorf("ProfileByName(%q) failed", p.Name)
		}
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("unknown profile resolved")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Prog, b.Prog) || !reflect.DeepEqual(a.Entries, b.Entries) {
		t.Error("same seed produced different programs")
	}
}

func TestBuildSeedChangesProgram(t *testing.T) {
	p1 := testProfile()
	p2 := testProfile()
	p2.Seed = 43
	a, _ := Build(p1)
	b, _ := Build(p2)
	if reflect.DeepEqual(a.Prog.ExecNodes(), b.Prog.ExecNodes()) {
		t.Error("different seeds produced identical programs")
	}
}

func TestBranchDensityNearTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workload builds in -short mode")
	}
	targets := map[string]float64{
		"OLTP-DB2": 3.6, "OLTP-Oracle": 2.5, "DSS-Qrys": 3.4,
		"Media-Streaming": 3.5, "Web-Frontend": 4.3,
	}
	for _, prof := range Profiles() {
		w, err := Build(prof)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Prog.StaticStats().PerBlock
		want := targets[prof.Name]
		if math.Abs(got-want) > 0.45 {
			t.Errorf("%s: static branches/block = %.2f, want ≈ %.1f (Table 2)",
				prof.Name, got, want)
		}
	}
}

// funcSpan returns the node range [lo, hi) of function i of p.
func funcSpan(p *program.Program, i int) (lo, hi int32) {
	fs := p.Funcs()
	lo, hi = fs[i].First, int32(len(p.ExecNodes()))
	if i+1 < len(fs) {
		hi = fs[i+1].First
	}
	return lo, hi
}

func TestLayeringIsAcyclic(t *testing.T) {
	w := buildTest(t)
	p := w.Prog
	fs := p.Funcs()
	// Direct calls and dispatch targets must always go to a strictly deeper
	// layer — this is what bounds the call stack and forbids recursion.
	for i := range p.ExecNodes() {
		n := &p.ExecNodes()[i]
		if !n.BrKind.IsCall() {
			continue
		}
		from := fs[p.FuncOf(int32(i))].Layer
		check := func(tn int32) {
			if to := fs[p.FuncOf(tn)].Layer; to <= from {
				t.Fatalf("call at %#x from layer %d to layer %d", n.BrPC(), from, to)
			}
		}
		if n.TargetNode >= 0 {
			check(n.TargetNode)
		}
		for _, tn := range p.IndirectTargets(n) {
			check(tn)
		}
	}
}

func TestLeafFunctionsDoNotCall(t *testing.T) {
	w := buildTest(t)
	last := int32(w.Prof.Layers - 1)
	for i, n := range w.Prog.ExecNodes() {
		if n.BrKind.IsCall() && w.Prog.Funcs()[w.Prog.FuncOf(int32(i))].Layer == last {
			t.Fatalf("leaf function block %#x contains a call", n.Addr)
		}
	}
}

func TestBlockLengthBounded(t *testing.T) {
	w := buildTest(t)
	for _, n := range w.Prog.ExecNodes() {
		if n.NInstr < 1 || n.NInstr > maxBlockLen+1 {
			t.Fatalf("block at %#x has %d instructions", n.Addr, n.NInstr)
		}
	}
}

func TestEveryFunctionEndsInReturn(t *testing.T) {
	w := buildTest(t)
	for i := range w.Prog.Funcs() {
		_, hi := funcSpan(w.Prog, i)
		if last := w.Prog.ExecNodes()[hi-1]; last.BrKind != isa.BrRet {
			t.Fatalf("function ending at %#x does not end in ret", last.End())
		}
	}
}

func TestLoopSitesHaveTripMeans(t *testing.T) {
	w := buildTest(t)
	prof := w.Prof
	loops := 0
	for _, n := range w.Prog.ExecNodes() {
		if n.Loop == program.NotLoop {
			continue
		}
		loops++
		if n.BrKind != isa.BrCond {
			t.Fatalf("loop site at %#x is %v, want cond", n.BrPC(), n.BrKind)
		}
		if int(n.TripMean) < prof.LoopTripMin-1 || int(n.TripMean) > prof.LoopTripMax+1 {
			t.Fatalf("loop at %#x: trip mean %d outside [%d,%d]",
				n.BrPC(), n.TripMean, prof.LoopTripMin, prof.LoopTripMax)
		}
	}
	if loops == 0 {
		t.Fatal("no loops generated")
	}
}

func TestMostFunctionsReachable(t *testing.T) {
	w := buildTest(t)
	p := w.Prog
	// Walk the static call graph from all entries; the cursor-based callee
	// selection exists precisely so generated code is not dead.
	seen := make([]bool, len(p.Funcs()))
	reached := 0
	var walk func(f int)
	walk = func(f int) {
		if seen[f] {
			return
		}
		seen[f] = true
		reached++
		lo, hi := funcSpan(p, f)
		for i := lo; i < hi; i++ {
			n := &p.ExecNodes()[i]
			if !n.BrKind.IsCall() {
				continue
			}
			if n.TargetNode >= 0 {
				walk(p.FuncOf(n.TargetNode))
			}
			for _, tn := range p.IndirectTargets(n) {
				walk(p.FuncOf(tn))
			}
		}
	}
	for _, e := range w.Entries {
		walk(p.FuncOf(e))
	}
	frac := float64(reached) / float64(len(p.Funcs()))
	if frac < 0.7 {
		t.Errorf("only %.0f%% of functions reachable from request entries", 100*frac)
	}
}

func TestRequestMixIsNormalized(t *testing.T) {
	w := buildTest(t)
	rng := rand.New(rand.NewPCG(1, 1))
	counts := make([]int, w.NumRequestTypes())
	for i := 0; i < 20000; i++ {
		counts[w.PickRequest(rng)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("request type %d never picked", i)
		}
	}
	// Zipf: type 0 must be the most common.
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[0]*2 {
			t.Errorf("mix not Zipf-shaped: counts=%v", counts)
		}
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	p := testProfile()
	p.Layers = 2
	if _, err := Build(p); err == nil {
		t.Error("too few layers: want error")
	}
	p = testProfile()
	p.Functions = 3
	if _, err := Build(p); err == nil {
		t.Error("too few functions: want error")
	}
}

func TestZipfCum(t *testing.T) {
	cum := zipfCum(5, 1.0)
	if len(cum) != 5 {
		t.Fatal("wrong length")
	}
	if math.Abs(cum[4]-1.0) > 1e-9 {
		t.Errorf("cumulative distribution must end at 1, got %v", cum[4])
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] <= cum[i-1] {
			t.Error("cumulative distribution must be increasing")
		}
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	const mean = 6.0
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(geometric(rng, mean))
	}
	got := sum / n
	if math.Abs(got-mean) > 0.3 {
		t.Errorf("geometric mean = %.2f, want ≈ %.1f", got, mean)
	}
}

func TestAirBundleFitsMostBlocks(t *testing.T) {
	// The paper sizes 3-entry bundles because ~50% of blocks hold ≤3
	// branches; our generator must reproduce that rough property or the
	// Figure 10 sensitivity loses its meaning.
	w := buildTest(t)
	within := 0
	total := 0
	for i := 0; i < w.Prog.NumCacheBlocks(); i++ {
		n := len(w.Prog.PredecodeBlock(w.Prog.ImageBase() + isa.Addr(i*isa.BlockBytes)))
		if n == 0 {
			continue
		}
		total++
		if n <= 3 {
			within++
		}
	}
	frac := float64(within) / float64(total)
	if frac < 0.3 || frac > 0.95 {
		t.Errorf("%.0f%% of blocks hold ≤3 branches; want a middling fraction", 100*frac)
	}
}

// TestProgramFootprint bounds what a live program retains per basic block:
// only the flat execution form (48B nodes, the predecode table, the
// indirect pool and the function table) may outlive Build, not the
// construction graph.
func TestProgramFootprint(t *testing.T) {
	const maxPerBlock = 120
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	w, err := Build(OLTPDB2())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	blocks := len(w.Prog.ExecNodes())
	runtime.KeepAlive(w)
	perBlock := (float64(ms.HeapAlloc) - float64(before)) / float64(blocks)
	t.Logf("%s: %d blocks, %.1f retained B/block", w.Prof.Name, blocks, perBlock)
	if perBlock > maxPerBlock {
		t.Errorf("program retains %.1f B per block, want <= %d", perBlock, maxPerBlock)
	}
}
