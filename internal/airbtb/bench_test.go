package airbtb

import (
	"testing"

	"confluence/internal/isa"
)

// BenchmarkAirBTBFillEvict measures L1-I-synchronized churn in the
// paper's configuration (512 bundles, B:3, OB:32): each iteration evicts
// the block filled 512 fills earlier, dropping its overflowed entries,
// and fills a new block whose five branches put two into the overflow
// buffer.
func BenchmarkAirBTBFillEvict(b *testing.B) {
	const resident = 512
	a := New(DefaultConfig())
	brs := make([]isa.PredecodedBranch, 5)
	for i := range brs {
		brs[i] = isa.PredecodedBranch{Offset: uint8(3 * i), Kind: isa.BrCond, Target: 0x9000}
	}
	block := func(i int) isa.Addr { return isa.Addr(0x100000 + (i%4096)*isa.BlockBytes) }
	for i := 0; i < resident; i++ {
		a.BlockFilled(0, block(i), brs, false)
	}
	b.ResetTimer()
	for i := resident; i < resident+b.N; i++ {
		a.BlockEvicted(block(i - resident))
		a.BlockFilled(0, block(i), brs, false)
	}
}
