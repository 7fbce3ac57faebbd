package trace

import (
	"runtime"
	"testing"

	"confluence/internal/synth"
)

func benchWorkload(b *testing.B) *synth.Workload {
	b.Helper()
	p := synth.OLTPDB2()
	p.Functions = 1100
	p.RequestTypes = 8
	p.Concurrency = 8
	p.Seed = 21
	w, err := synth.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkExecutorNext measures raw control-flow walk throughput.
func BenchmarkExecutorNext(b *testing.B) {
	w := benchWorkload(b)
	e := NewExecutor(w, 1)
	var rec Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Next(&rec)
	}
	b.ReportMetric(float64(e.Instructions)/float64(b.N), "instr/record")
}

// BenchmarkBuild measures generating the five paper programs: ns/block is
// generation time per basic block, retained-B/block the heap the built
// programs keep alive per basic block (the program footprint every
// simulation of a workload holds for its whole run).
func BenchmarkBuild(b *testing.B) {
	profs := synth.Profiles()
	var ms runtime.MemStats
	var blocks, retained uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		b.StartTimer()
		ws := make([]*synth.Workload, len(profs))
		for j, p := range profs {
			w, err := synth.Build(p)
			if err != nil {
				b.Fatal(err)
			}
			ws[j] = w
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		blocks, retained = 0, ms.HeapAlloc-min(before, ms.HeapAlloc)
		for _, w := range ws {
			blocks += uint64(len(w.Prog.ExecNodes()))
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(blocks), "retained-B/block")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*blocks), "ns/block")
}
