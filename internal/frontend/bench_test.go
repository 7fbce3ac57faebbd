package frontend

import (
	"testing"

	"confluence/internal/airbtb"
	"confluence/internal/btb"
	"confluence/internal/fdp"
	"confluence/internal/isa"
	"confluence/internal/shift"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// benchRecords builds a looping MemSource over a synthetic instruction
// stream: nBlocks distinct 64B blocks visited as basic blocks with a taken
// branch every fourth record — enough structure to exercise the BTB, the
// predictors, the L1-I, and SHIFT's confirm/restart paths.
func benchRecords(nBlocks int) *trace.MemSource {
	recs := make([]trace.Record, 0, nBlocks*2)
	base := isa.Addr(0x10000)
	for i := 0; i < nBlocks; i++ {
		start := base + isa.Addr(i)*isa.BlockBytes
		// Two 8-instruction basic blocks per 64B block.
		recs = append(recs, trace.Record{Start: start, N: 8, Next: start + 32})
		mid := start + 32
		var br trace.BranchInfo
		next := start + isa.BlockBytes
		if i == nBlocks-1 {
			next = base
		}
		if i%4 == 3 {
			br = trace.BranchInfo{
				PC: mid + 7*isa.InstrBytes, Kind: isa.BrUncond,
				Taken: true, Target: next,
			}
		}
		recs = append(recs, trace.Record{Start: mid, N: 8, Br: br, Next: next})
	}
	return trace.NewMemSource(recs, true)
}

// benchCore assembles a single Confluence-style core (AirBTB + SHIFT over a
// shared history) fed by a MemSource.
func benchCore(b *testing.B, nBlocks int) (*Core, *trace.MemSource) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.BackendCPI = 0.6
	cfg.Exposure = 0.42
	cfg.Hier = testHier()
	h := shift.NewHistory(4096)
	cfg.Recorder = h
	cfg.Prefetcher = shift.NewEngine(shift.Config{HistoryEntries: 4096, Lookahead: 20}, h, 10)
	cfg.BTB = airbtb.New(airbtb.DefaultConfig())
	return NewCore(cfg), benchRecords(nBlocks)
}

// BenchmarkCoreStep measures the per-basic-block cost of the frontend hot
// path — StreamPredict + StepPredicted and everything they call — for a single core driven from
// a MemSource, with SHIFT and AirBTB wired the way the Confluence design
// point wires them. The resident case stays within the L1-I (all hits);
// the streaming case loops a footprint several times the L1-I, so every
// lap exercises misses, fills, evictions, bundle churn, and SHIFT's
// restart/confirm stream — the traffic the flat structures were built for.
func BenchmarkCoreStep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		nBlocks int
	}{
		{"resident", 256},
		{"streaming", 4096}, // 256KB of code vs the 32KB L1-I
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, src := benchCore(b, bc.nBlocks)
			var rec trace.Record
			// Warm caches, history, and predictors into steady state.
			for i := 0; i < 1<<15; i++ {
				src.Next(&rec)
				step(c, &rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Next(&rec)
				step(c, &rec)
			}
			st := c.Stats()
			b.ReportMetric(float64(st.Instructions)/float64(st.Records), "instr/block")
		})
	}
}

// halfCases are the BenchmarkCoreStep streams on the Confluence-style
// core, plus the streaming case on a Base1K-style core (conventional BTB
// with victim buffer, no prefetcher), whose BTB the stream half probes.
var halfCases = []struct {
	name    string
	nBlocks int
	conv    bool
}{
	{"resident", 256, false},
	{"streaming", 4096, false},
	{"streaming-conventional", 4096, true},
}

// halfCore is benchCore, or its Base1K-style variant.
func halfCore(b *testing.B, nBlocks int, conv bool) (*Core, *trace.MemSource) {
	c, src := benchCore(b, nBlocks)
	if conv {
		cfg := c.cfg
		cfg.Recorder, cfg.Prefetcher = nil, nil
		cfg.BTB = btb.NewConventional("bench", 256, 4, 64)
		c = NewCore(cfg)
	}
	return c, src
}

var outcomeSink Outcome

// BenchmarkCoreStreamPredict measures the stream half of a detailed step — what
// the CMP engine's stage goroutines run ahead of the weave — per basic
// block, after the BenchmarkCoreStep warm-up.
func BenchmarkCoreStreamPredict(b *testing.B) {
	for _, bc := range halfCases {
		b.Run(bc.name, func(b *testing.B) {
			c, src := halfCore(b, bc.nBlocks, bc.conv)
			var rec trace.Record
			for i := 0; i < 1<<15; i++ {
				src.Next(&rec)
				step(c, &rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Next(&rec)
				outcomeSink = c.StreamPredict(&rec)
			}
		})
	}
}

// BenchmarkCoreStepPredicted measures the timing half of a detailed step — the
// weave's share — per basic block. One lap of the stream is predicted up
// front and replayed, records with their outcomes, so only StepPredicted
// is timed. Besides the synthetic all-hit and all-miss loops, oltp-db2
// drives a Confluence-wired core from a generated OLTP-DB2 program, the
// mix of hits, prefetched fills and demand misses a grid cell's core
// sees.
func BenchmarkCoreStepPredicted(b *testing.B) {
	timed := func(b *testing.B, c *Core, src trace.Source, warm, lap int) {
		var rec trace.Record
		for i := 0; i < warm; i++ {
			src.Next(&rec)
			step(c, &rec)
		}
		recs := make([]trace.Record, lap)
		outs := make([]Outcome, lap)
		for i := range recs {
			src.Next(&recs[i])
			outs[i] = c.StreamPredict(&recs[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % lap
			c.StepPredicted(&recs[j], &outs[j])
		}
		st := c.Stats()
		b.ReportMetric(float64(st.L1IMisses)/float64(st.Instructions)*1000, "l1i-mpki")
	}
	for _, bc := range halfCases {
		b.Run(bc.name, func(b *testing.B) {
			c, src := halfCore(b, bc.nBlocks, bc.conv)
			timed(b, c, src, 1<<15, 2*bc.nBlocks) // benchRecords' records per lap
		})
	}
	b.Run("oltp-db2", func(b *testing.B) {
		c, src := oltpCore(b)
		timed(b, c, src, 1<<18, 1<<16)
	})
}

// oltpWorkload is the generated OLTP-DB2 program, built once per process.
var oltpWorkload *synth.Workload

// oltpCore assembles a core wired as the Confluence design point wires
// one (AirBTB, SHIFT over a shared history, predecode penalty, the
// program image for predecode) with its stream: core 0 of the paper's
// OLTP-DB2 workload.
func oltpCore(b *testing.B) (*Core, trace.Source) {
	b.Helper()
	if oltpWorkload == nil {
		w, err := synth.Build(synth.OLTPDB2())
		if err != nil {
			b.Fatal(err)
		}
		oltpWorkload = w
	}
	w := oltpWorkload
	cfg := DefaultConfig()
	cfg.BackendCPI = w.Prof.BackendCPI
	cfg.Exposure = w.Prof.Exposure
	cfg.Hier = testHier()
	cfg.Prog = w.Prog
	cfg.PredecodePenalty = 2
	h := shift.NewHistory(shift.DefaultConfig().HistoryEntries)
	cfg.Recorder = h
	cfg.Prefetcher = shift.NewEngine(shift.DefaultConfig(), h, 10)
	cfg.BTB = airbtb.New(airbtb.DefaultConfig())
	return NewCore(cfg), trace.NewExecutor(w, trace.CoreSeed(w.Prof.Seed, 0))
}

// BenchmarkCoreFastStep measures the per-basic-block cost of the
// functional fast-forward path, Core.FastStep, on the BenchmarkCoreStep
// core and streams, driven the way the CMP engine drives it: shared-state
// writes logged (DeferFF) and replayed into the LLC and the history once
// per chunk of ffChunk blocks, the replay included in the cost.
func BenchmarkCoreFastStep(b *testing.B) {
	const ffChunk = 4096
	for _, bc := range []struct {
		name    string
		nBlocks int
	}{
		{"resident", 256},
		{"streaming", 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, src := benchCore(b, bc.nBlocks)
			var l FFLog
			c.DeferFF(&l)
			var rec trace.Record
			step := func(i int) {
				src.Next(&rec)
				c.FastStep(&rec)
				if i%ffChunk == ffChunk-1 {
					for r := uint32(0); r < ffChunk; r++ {
						c.ReplayFF(&l, r)
					}
					c.DeferFF(&l)
				}
			}
			for i := 0; i < 1<<15; i++ {
				step(i)
			}
			warm := c.FFCounts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			ff := c.FFCounts()
			ff.Sub(&warm)
			b.ReportMetric(float64(ff.L1IMisses)/float64(ff.Instructions)*1000, "l1i-mpki")
		})
	}
}

// TestCoreStepSteadyStateZeroAllocs pins the tentpole property: after
// warmup, the per-instruction path — a detailed step with SHIFT, AirBTB, the
// in-flight fill table, and the shared history all active — performs zero
// heap allocations, so the flat-structure rewrite cannot silently rot back
// into per-step garbage.
func TestCoreStepSteadyStateZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackendCPI = 0.6
	cfg.Exposure = 0.42
	cfg.Hier = testHier()
	h := shift.NewHistory(4096)
	cfg.Recorder = h
	cfg.Prefetcher = shift.NewEngine(shift.Config{HistoryEntries: 4096, Lookahead: 20}, h, 10)
	cfg.BTB = airbtb.New(airbtb.DefaultConfig())
	c := NewCore(cfg)
	// A footprint several times the L1-I: the measured steps continuously
	// miss, fill, evict, and stream prefetches — the full hot path, not
	// just the hit path, must be allocation-free.
	src := benchRecords(4096)

	var rec trace.Record
	for i := 0; i < 1<<15; i++ {
		src.Next(&rec)
		step(c, &rec)
	}
	// Cover several scrub periods (1<<14 steps each) so the periodic Expire
	// sweep is included in the allocation budget.
	allocs := testing.AllocsPerRun(4, func() {
		for i := 0; i < 1<<14; i++ {
			src.Next(&rec)
			step(c, &rec)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state detailed step allocated %v times per 2^14 steps, want 0", allocs)
	}
}

// TestCoreStepZeroAllocsFDP pins the same property for the FDP design
// points, whose OnRegion path appends into the frontend's scratch buffer.
func TestCoreStepZeroAllocsFDP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackendCPI = 0.6
	cfg.Exposure = 0.42
	cfg.Hier = testHier()
	cfg.BTB = btb.NewConventional("bench", 256, 4, 64)
	cfg.Prefetcher = fdp.New(fdp.DefaultConfig())
	c := NewCore(cfg)
	src := benchRecords(256)

	var rec trace.Record
	for i := 0; i < 1<<15; i++ {
		src.Next(&rec)
		step(c, &rec)
	}
	allocs := testing.AllocsPerRun(4, func() {
		for i := 0; i < 1<<14; i++ {
			src.Next(&rec)
			step(c, &rec)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FDP detailed step allocated %v times per 2^14 steps, want 0", allocs)
	}
}
