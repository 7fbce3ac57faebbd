package airbtb

import (
	"testing"

	"confluence/internal/isa"
)

// BenchmarkAirBTBFillEvict measures L1-I-synchronized churn in the
// paper's configuration (512 bundles, B:3, OB:32) bound to its 128x4
// L1-I: each iteration fills a new block into the L1-I, evicting the
// block filled 512 fills earlier, and installs its bundle in the slot,
// dropping the evicted block's overflowed entries and putting two of the
// new block's five branches into the overflow buffer.
func BenchmarkAirBTBFillEvict(b *testing.B) {
	const resident = 512
	a, _ := newBound(DefaultConfig())
	brs := make([]isa.PredecodedBranch, 5)
	for i := range brs {
		brs[i] = isa.PredecodedBranch{Offset: uint8(3 * i), Kind: isa.BrCond, Target: 0x9000}
	}
	block := func(i int) isa.Addr { return isa.Addr(0x100000 + (i%4096)*isa.BlockBytes) }
	for i := 0; i < resident; i++ {
		fillBlock(a, block(i), brs...)
	}
	b.ResetTimer()
	for i := resident; i < resident+b.N; i++ {
		fillBlock(a, block(i), brs...)
	}
}
