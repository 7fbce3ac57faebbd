package frontend

import (
	"math/rand/v2"
	"testing"

	"confluence/internal/airbtb"
	"confluence/internal/isa"
	"confluence/internal/prefetch"
	"confluence/internal/trace"
)

// greedyPrefetcher requests every block it sees and its neighbours, so
// most of its requests name blocks already in the L1-I.
type greedyPrefetcher struct{}

func (greedyPrefetcher) Name() string { return "greedy" }

func (greedyPrefetcher) OnAccess(_ float64, b isa.Addr, _ bool, dst []prefetch.Request) []prefetch.Request {
	return append(dst, prefetch.Request{Block: b}, prefetch.Request{Block: b + isa.BlockBytes, ExtraDelay: 3},
		prefetch.Request{Block: b - isa.BlockBytes})
}

func (greedyPrefetcher) OnRegion(_ float64, start isa.Addr, _ int, dst []prefetch.Request) []prefetch.Request {
	b := isa.BlockOf(start)
	return append(dst, prefetch.Request{Block: b}, prefetch.Request{Block: b + 2*isa.BlockBytes})
}

func (greedyPrefetcher) Redirect(float64) {}

// TestResidentBlockNeverInFlight pins the invariant that lets a detailed
// or fast-forward step skip the in-flight probe for a block the L1-I
// holds: schedule admits no resident block, and every fill takes its
// block out of the in-flight table first, so after every step no
// resident block is in flight. A prefetcher that keeps requesting
// resident blocks, over a stream that overflows the L1-I, exercises both
// halves.
func TestResidentBlockNeverInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.BTB = airbtb.New(airbtb.DefaultConfig())
	cfg.Prefetcher = greedyPrefetcher{}
	c := NewCore(cfg)
	rng := rand.New(rand.NewPCG(1, 2))
	var keys []uint64
	for i := 0; i < 20_000; i++ {
		start := isa.Addr(0x10_0000 + rng.IntN(900)*isa.BlockBytes + rng.IntN(16)*isa.InstrBytes)
		rec := trace.Record{Start: start, N: 1 + rng.IntN(15)}
		if i%2 == 0 {
			step(c, &rec)
		} else {
			c.FastStep(&rec)
		}
		keys = c.L1I().Keys(keys[:0])
		for _, k := range keys {
			if _, ok := c.inflight.Ready(k); ok {
				t.Fatalf("step %d: resident block %#x is in flight", i, k<<isa.BlockShift)
			}
		}
	}
	if c.Stats().PrefIssued == 0 || c.Stats().PrefUseful == 0 {
		t.Fatal("the drive issued or used no prefetches")
	}
}
