package cmp

import (
	"fmt"
	"reflect"
	"testing"

	"confluence/internal/btb"
	"confluence/internal/cache"
	"confluence/internal/frontend"
	"confluence/internal/mem"
	"confluence/internal/prefetch"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// seqRecorder appends core c's history records to a shared sequence.
type seqRecorder struct {
	c   int
	seq *[]string
}

func (r seqRecorder) Record(key uint64) {
	*r.seq = append(*r.seq, fmt.Sprintf("core %d records %#x", r.c, key))
}

// replayRoundLoop is the replay replayChunk replaced: every round of the
// chunk, every active core in core order.
func replayRoundLoop(cores []*frontend.Core, cur []*ffChunk, active []int) {
	var rounds uint32
	for _, c := range active {
		rounds = max(rounds, cur[c].log.Rounds())
	}
	for r := uint32(0); r < rounds; r++ {
		for _, c := range active {
			cores[c].ReplayFF(&cur[c].log, r)
		}
	}
}

// TestReplayChunkMatchesRoundLoop replays one chunk of logs with
// replayChunk and with the per-round loop it replaced, into two copies of
// the same system: the history records must arrive in the same sequence
// and the LLC, whose single stamp clock orders every warm touch, must
// end identical. The logs cover the merge's edge cases: core 0 logs LLC
// warms and a history record nearly every round; core 2 steps the same
// stream in another address space without a recorder, so it logs warms
// in exactly core 0's warm rounds (ties the merge must give to core 0)
// and nothing in most rounds; core 1 has a perfect L1-I and logs
// nothing; core 3 steps no round at all.
func TestReplayChunkMatchesRoundLoop(t *testing.T) {
	p := synth.OLTPDB2()
	p.Functions = 320
	p.RequestTypes = 4
	p.Concurrency = 4
	p.Seed = 55
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3000
	replay := func(fn func([]*frontend.Core, []*ffChunk, []int)) ([]string, cache.CacheState) {
		hier := mem.New(mem.DefaultConfig(), 0)
		var seq []string
		cores := make([]*frontend.Core, 4)
		cur := make([]*ffChunk, len(cores))
		for c := range cores {
			cfg := frontend.DefaultConfig()
			cfg.CoreID, cfg.ASID = c, c
			cfg.BTB = btb.NewConventional("t", 256, 4, 64)
			cfg.Prefetcher = prefetch.Null{}
			cfg.Hier, cfg.Prog = hier, w.Prog
			cfg.PerfectL1I = c == 1
			if c == 0 {
				cfg.Recorder = seqRecorder{c, &seq}
			}
			cores[c] = frontend.NewCore(cfg)
			cur[c] = new(ffChunk)
			cores[c].DeferFF(&cur[c].log)
			if c == 3 {
				continue
			}
			src := trace.NewExecutor(w, 7)
			var rec trace.Record
			for i := 0; i < steps; i++ {
				if err := src.Next(&rec); err != nil {
					t.Fatal(err)
				}
				cores[c].FastStep(&rec)
			}
		}
		if ff := cores[2].FFCounts(); ff.L1IMisses == 0 || ff.L1IMisses >= steps/2 {
			t.Fatalf("core 2 logged %d warms in %d rounds, want some and mostly empty rounds", ff.L1IMisses, steps)
		}
		fn(cores, cur, []int{0, 1, 2, 3})
		for c := range cores {
			if _, ok := cur[c].log.NextRound(); ok {
				t.Fatalf("core %d: writes left unreplayed", c)
			}
			cores[c].DeferFF(nil)
		}
		return seq, hier.ExportLLCState()
	}
	wantSeq, wantLLC := replay(replayRoundLoop)
	gotSeq, gotLLC := replay(replayChunk)
	if len(wantSeq) == 0 {
		t.Fatal("core 0 logged no history records")
	}
	if !reflect.DeepEqual(gotSeq, wantSeq) {
		t.Errorf("history records diverge: %d records, round loop %d", len(gotSeq), len(wantSeq))
	}
	if !reflect.DeepEqual(gotLLC, wantLLC) {
		t.Error("LLC state diverges from the round loop's: the warm touches were replayed in another order")
	}
}
