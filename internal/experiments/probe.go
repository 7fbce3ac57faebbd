package experiments

import (
	"context"
	"fmt"
	"strings"

	"confluence/internal/parallel"
	"confluence/internal/stats"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// The probe is the quickest way to see where a workload's cycles go: a
// characterization of its instruction stream, then Figure 6's design
// points with IPC, miss rates and the per-kilo-instruction cycle
// decomposition. Its cells are Figure 6's cells, so after Figure 6 it
// simulates nothing.

const (
	probeWalkInstr = 2_000_000 // stream instructions the characterization walks
	probeFarReuse  = 100_000   // reuse distance (instructions) of a far block touch
	probeSeed      = 0xd1a9    // seed of the live executor it walks
)

// Characterization summarizes one workload's program image and
// instruction stream.
type Characterization struct {
	Funcs            int
	FootprintKB      int
	BranchesPerBlock float64   // static
	LayerPct         []float64 // share (percent) of instructions per call-graph layer
	// FarReusePKI counts first touches of a 64B block plus touches more
	// than probeFarReuse instructions after the block's previous one, per
	// kilo-instruction: the L1-I pressure proxy.
	FarReusePKI float64
}

// ProbeRow is one workload's probe.
type ProbeRow struct {
	Workload string
	TraceDir string            // the replayed capture; empty for live execution
	Char     *Characterization // nil without a program image (an external capture)
	Cells    []StoreEntry      // parallel to Figure6Designs; Cells[0] is Base1K
}

// Probe characterizes every workload of the runner and reports each of
// Figure6Designs on it at default options.
func (r *Runner) Probe(ctx context.Context) ([]ProbeRow, error) {
	g, err := r.table(ctx, r.defaults(Figure6Designs...))
	if err != nil {
		return nil, err
	}
	rows := make([]ProbeRow, len(r.Workloads))
	err = parallel.ForEach(ctx, r.workers(), len(r.Workloads),
		func(_ context.Context, i int) error {
			w := r.Workloads[i]
			rows[i] = ProbeRow{Workload: w.Prof.Name, TraceDir: w.TraceDir, Cells: g[i]}
			var err error
			rows[i].Char, err = characterize(w)
			return err
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// characterize walks probeWalkInstr instructions of w's stream (core 0 of
// the capture when replaying, a live executor otherwise). It returns nil
// when w has no program image to attribute call-graph layers with.
func characterize(w *synth.Workload) (*Characterization, error) {
	if w.Prog == nil {
		return nil, nil
	}
	var src trace.Source
	if w.TraceDir != "" {
		fs, err := trace.OpenDirSource(w.TraceDir, 0)
		if err != nil {
			return nil, err
		}
		defer fs.Close()
		src = fs
	} else {
		src = trace.NewExecutor(w, probeSeed)
	}
	var rec trace.Record
	funcs := w.Prog.Funcs()
	layerInstr := make([]uint64, w.Prof.Layers)
	seen := map[uint64]uint64{} // block -> instruction count at its last touch
	var reuseFar, total uint64
	for total < probeWalkInstr {
		if err := src.Next(&rec); err != nil {
			return nil, err
		}
		total += uint64(rec.N)
		if n := w.Prog.NodeAt(rec.Start); n >= 0 {
			if l := int(funcs[w.Prog.FuncOf(n)].Layer); l < len(layerInstr) {
				layerInstr[l] += uint64(rec.N)
			}
		}
		blk := uint64(rec.Start) >> 6
		if last, ok := seen[blk]; !ok || total-last > probeFarReuse {
			reuseFar++
		}
		seen[blk] = total
	}
	c := &Characterization{
		Funcs:            len(funcs),
		FootprintKB:      w.Prog.FootprintBytes() >> 10,
		BranchesPerBlock: w.Prog.StaticStats().PerBlock,
		FarReusePKI:      float64(reuseFar) / float64(total) * 1000,
	}
	for _, n := range layerInstr {
		c.LayerPct = append(c.LayerPct, 100*float64(n)/float64(total))
	}
	return c, nil
}

// ProbeTable formats Probe results: per workload, the characterization
// lines and a table of the design points. The stall columns are cycles
// per kilo-instruction; sampled runs add the IPC's 95% confidence
// interval.
func ProbeTable(rows []ProbeRow) string {
	var b strings.Builder
	for i, row := range rows {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "== Probe: %s ==\n", row.Workload)
		if c := row.Char; c != nil {
			fmt.Fprintf(&b, "%s: %d funcs, %dKB, %.2f branches/block", row.Workload, c.Funcs, c.FootprintKB, c.BranchesPerBlock)
			if row.TraceDir != "" {
				fmt.Fprintf(&b, ", replaying %s", row.TraceDir)
			}
			b.WriteString("\ninstr by layer:")
			for l, pct := range c.LayerPct {
				fmt.Fprintf(&b, " L%d=%.0f%%", l, pct)
			}
			fmt.Fprintf(&b, "\nfar-reuse blocks/kilo-instr: %.1f (L1-I pressure proxy)\n\n", c.FarReusePKI)
		} else {
			fmt.Fprintf(&b, "%s: replaying %s (no program image)\n\n", row.Workload, row.TraceDir)
		}
		cols := []string{"Design", "IPC", "btbMPKI", "l1iMPKI", "Speedup",
			"L1Istall/KI", "Misfetch/KI", "Bubble/KI", "Resolve/KI"}
		sampled := row.Cells[0].Sampled != nil
		if sampled {
			cols = append(cols, "IPC ±95%CI")
		}
		t := stats.NewTable("", cols...)
		for j, e := range row.Cells {
			st := e.Stats
			k := float64(st.Instructions) / 1000
			cells := []any{Figure6Designs[j].String(),
				fmt.Sprintf("%.3f", st.IPC()), fmt.Sprintf("%.1f", st.BTBMPKI()), fmt.Sprintf("%.1f", st.L1IMPKI()),
				fmt.Sprintf("%.2fx", st.IPC()/row.Cells[0].Stats.IPC()),
				fmt.Sprintf("%.1f", st.L1IStallCycles/k), fmt.Sprintf("%.1f", st.MisfetchCycles/k),
				fmt.Sprintf("%.1f", st.BubbleCycles/k), fmt.Sprintf("%.1f", st.ResolveCycles/k)}
			if sampled {
				cells = append(cells, e.Sampled.IPC.String())
			}
			t.Row(cells...)
		}
		b.WriteString(t.String())
	}
	return b.String()
}
