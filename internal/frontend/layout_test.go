package frontend

import (
	"testing"
	"unsafe"
)

// TestStreamFieldsOffWeaveLines pins the cache-line split Core's pad
// exists for: the CMP engine runs StreamPredict on a stage goroutine
// while the weave runs StepPredicted on another CPU, so no Core field
// StreamPredict reads may share a 64-byte line with a field
// StepPredicted writes, or every step bounces that line between the two
// CPUs. The check holds for any placement of a Core in memory: two
// fields can share a line only if fewer than 63 bytes separate them.
// When either method starts touching another Core field, list it here.
func TestStreamFieldsOffWeaveLines(t *testing.T) {
	var c Core
	type field struct {
		name      string
		off, size uintptr
	}
	cfg := unsafe.Offsetof(c.cfg)
	streamReads := []field{
		{"cfg.BTB", cfg + unsafe.Offsetof(c.cfg.BTB), unsafe.Sizeof(c.cfg.BTB)},
		{"cfg.PerfectBTB", cfg + unsafe.Offsetof(c.cfg.PerfectBTB), unsafe.Sizeof(c.cfg.PerfectBTB)},
		{"hybrid", unsafe.Offsetof(c.hybrid), unsafe.Sizeof(c.hybrid)},
		{"ras", unsafe.Offsetof(c.ras), unsafe.Sizeof(c.ras)},
		{"itc", unsafe.Offsetof(c.itc), unsafe.Sizeof(c.itc)},
		{"streamBTB", unsafe.Offsetof(c.streamBTB), unsafe.Sizeof(c.streamBTB)},
	}
	weaveWrites := []field{
		{"cycle", unsafe.Offsetof(c.cycle), unsafe.Sizeof(c.cycle)},
		{"st", unsafe.Offsetof(c.st), unsafe.Sizeof(c.st)},
		{"lastBlock", unsafe.Offsetof(c.lastBlock), unsafe.Sizeof(c.lastBlock)},
		{"hasLast", unsafe.Offsetof(c.hasLast), unsafe.Sizeof(c.hasLast)},
		{"steps", unsafe.Offsetof(c.steps), unsafe.Sizeof(c.steps)},
		{"reqs", unsafe.Offsetof(c.reqs), unsafe.Sizeof(c.reqs)},
	}
	const line = 64
	for _, r := range streamReads {
		for _, w := range weaveWrites {
			// Bytes [r.off, r.off+r.size) and [w.off, w.off+w.size): the
			// gap between the nearer ends must be at least line-1 bytes.
			lo, hi := r, w
			if w.off < r.off {
				lo, hi = w, r
			}
			if hi.off < lo.off+lo.size+line-1 {
				t.Errorf("StreamPredict reads %s (bytes %d-%d) within a cache line of %s (bytes %d-%d), which StepPredicted writes",
					r.name, r.off, r.off+r.size-1, w.name, w.off, w.off+w.size-1)
			}
		}
	}
}
