package cmp

import (
	"context"
	"errors"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"confluence/internal/airbtb"
	"confluence/internal/cache"
	"confluence/internal/fdp"
	"confluence/internal/frontend"
	"confluence/internal/phantom"
	"confluence/internal/shift"
	"confluence/internal/trace"
)

// finiteSources replaces core c's source with a non-looping prefix of
// lens[c] records of its own stream (lens[c] == 0 leaves it live).
func finiteSources(t *testing.T, sys *System, lens []int) {
	t.Helper()
	for c, n := range lens {
		if n == 0 {
			continue
		}
		short, err := trace.RecordFrom(sys.Sources[c], n)
		if err != nil {
			t.Fatal(err)
		}
		short.Loop = false
		if err := short.Reset(); err != nil {
			t.Fatal(err)
		}
		sys.Sources[c] = short
	}
}

// slowSource is a source that sleeps before every batch, so its core
// lags the others.
type slowSource struct{ trace.Source }

func (s slowSource) NextBatch(dst []trace.Record) (int, error) {
	time.Sleep(50 * time.Microsecond)
	return s.Source.NextBatch(dst)
}

// TestFastForwardDrySourceMatchesSerial: a finite source running dry
// mid-fast-forward fails the phase with the serial schedule's error — the
// core that ran dry in the earliest round, the lowest such core on a tie —
// at every worker count, across chunk boundaries too, and however far the
// cores with live sources have stepped ahead. A core that reaches its
// target before its source runs out never fails.
func TestFastForwardDrySourceMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		lens []int
		slow bool // the finite sources lag, so live cores run a chunk ahead
		want string
	}{
		// Core 3 runs dry first although core 1 is the lower index.
		{"earliest-round", []int{0, 900, 0, 300}, false, "cmp: core 3 source: EOF"},
		{"tie-lowest-core", []int{0, 300, 0, 300}, false, "cmp: core 1 source: EOF"},
		// Both run dry in the second chunk.
		{"later-chunk", []int{0, ffChunkRounds + 700, 0, ffChunkRounds + 200}, false, "cmp: core 3 source: EOF"},
		// Core 1 runs dry at a later round of the third chunk than core
		// 3, while cores 0 and 2 are already stepping the fourth.
		{"lagging-dry-cores", []int{0, 2*ffChunkRounds + 900, 0, 2*ffChunkRounds + 300}, true, "cmp: core 3 source: EOF"},
		// Core 1 runs dry a chunk before core 3 does.
		{"lower-core-earlier-chunk", []int{0, ffChunkRounds + 900, 0, 2*ffChunkRounds + 300}, true, "cmp: core 1 source: EOF"},
	} {
		for _, workers := range []int{1, 2, 4} {
			sys := testSystem(t, 4)
			sys.SetIntra(workers)
			finiteSources(t, sys, tc.lens)
			if tc.slow {
				for c, n := range tc.lens {
					if n > 0 {
						sys.Sources[c] = slowSource{sys.Sources[c]}
					}
				}
			}
			err := sys.FastForward(context.Background(), 1_000_000)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, workers=%d: got error %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}

	// Targets inside every finite budget run clean: the EOF decode-ahead
	// reaches stays invisible.
	for _, workers := range []int{1, 4} {
		sys := testSystem(t, 4)
		sys.SetIntra(workers)
		finiteSources(t, sys, []int{0, 900, 0, 300})
		if err := sys.FastForward(context.Background(), 300); err != nil {
			t.Errorf("workers=%d: in-bounds fast-forward failed: %v", workers, err)
		}
	}
}

// cancelAfter is a source that cancels a context once it has delivered n
// records.
type cancelAfter struct {
	trace.Source
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfter) NextBatch(dst []trace.Record) (int, error) {
	k, err := s.Source.NextBatch(dst)
	if s.n -= k; s.n <= 0 {
		s.cancel()
	}
	return k, err
}

// TestFastForwardCancelWithinChunk: cancelling mid-fast-forward returns
// ctx.Err() within a chunk. The contract: the replay polls the context
// after replaying each chunk and before handing its logs back, and a core
// needs a log back to step on, so no core runs more than ffLead chunks
// past the chunk being replayed. A cancellation landing while core 0
// steps its second chunk is seen no later than after that chunk's replay,
// so no core steps beyond chunk 2+ffLead: three chunks for a lead of one.
func TestFastForwardCancelWithinChunk(t *testing.T) {
	const at = ffChunkRounds + 100 // inside the second chunk
	const bound = (2 + ffLead) * ffChunkRounds
	for _, workers := range []int{1, 2, 4} {
		sys := testSystem(t, 4)
		sys.SetIntra(workers)
		ctx, cancel := context.WithCancel(context.Background())
		sys.Sources[0] = &cancelAfter{Source: sys.Sources[0], n: at, cancel: cancel}
		err := sys.FastForward(ctx, 1<<40)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		for c, n := range sys.ConsumedRecords() {
			if n > bound {
				t.Errorf("workers=%d: core %d stepped %d records, more than %d chunks", workers, c, n, bound/ffChunkRounds)
			}
		}
	}
}

// historySystem is testSystem with two generator cores recording into one
// shared SHIFT history, so the replay order of history records matters as
// much as that of LLC touches.
func historySystem(t *testing.T, cores int) (*System, *shift.History) {
	t.Helper()
	h := shift.NewHistory(4096)
	sys := testSystemWith(t, cores, func(c int, cfg *frontend.Config) {
		if c < 2 {
			cfg.Recorder = h
		}
	})
	return sys, h
}

// serialFastForward is the reference schedule chunked fast-forward must
// reproduce: every core below target steps once per round, in core
// order, with FastStep applying its shared-state writes directly.
func serialFastForward(t *testing.T, s *System, n uint64) {
	t.Helper()
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	e := s.eng
	target := make([]uint64, len(s.Cores))
	for c := range target {
		target[c] = e.prog[c].instr + n
	}
	for live := true; live; {
		live = false
		for c, core := range s.Cores {
			pg, q := &e.prog[c], &e.q[c]
			if pg.instr >= target[c] {
				continue
			}
			if q.n == 0 {
				if q.refill(s.Sources[c]); q.n == 0 {
					t.Fatal(e.dryErr(c))
				}
			}
			rec := &q.buf[q.head]
			core.FastStep(rec)
			q.head++
			q.n--
			pg.instr += uint64(rec.N)
			pg.recs++
			live = true
		}
	}
}

// TestChunkedFastForwardMatchesSerialSchedule: at every worker count,
// chunked fast-forward leaves exactly the state the serial round-robin
// schedule leaves — every core's warm state, the LLC, the shared history,
// the stream positions — and the detailed run that follows measures
// identically. The phases end mid-chunk, the second after less than a
// chunk, so a phase's last, partial chunk is replayed too and the next
// phase starts its chunks afresh.
func TestChunkedFastForwardMatchesSerialSchedule(t *testing.T) {
	phases := []uint64{3 * ffChunkRounds * 4, 7_777} // several chunks of short blocks, then a fraction of one
	type state struct {
		cores    []frontend.CoreWarmState
		llc      cache.CacheState
		hist     shift.HistoryState
		consumed []uint64
		after    frontend.Stats // a detailed run following the fast-forward
	}
	capture := func(sys *System, h *shift.History) state {
		var st state
		for _, c := range sys.Cores {
			st.cores = append(st.cores, c.ExportWarmState())
		}
		st.llc, st.hist, st.consumed = sys.Hier.ExportLLCState(), h.ExportState(), sys.ConsumedRecords()
		st.after = *mustRun(t, sys, 0, 20_000)
		return st
	}
	ref, refHist := historySystem(t, 4)
	for i, n := range phases {
		serialFastForward(t, ref, n)
		if i == 0 {
			midChunk := false
			for _, recs := range ref.ConsumedRecords() {
				midChunk = midChunk || recs%ffChunkRounds != 0
			}
			if !midChunk {
				t.Fatal("the first phase ends on a chunk boundary on every core; pick a length that ends mid-chunk")
			}
		}
	}
	want := capture(ref, refHist)
	for _, workers := range []int{1, 2, 4} {
		sys, hist := historySystem(t, 4)
		sys.SetIntra(workers)
		for _, n := range phases {
			if err := sys.FastForward(context.Background(), n); err != nil {
				t.Fatal(err)
			}
		}
		got := capture(sys, hist)
		for c := range got.cores {
			if !reflect.DeepEqual(got.cores[c], want.cores[c]) {
				t.Errorf("workers=%d: core %d warm state differs from the serial schedule", workers, c)
			}
		}
		if !reflect.DeepEqual(got.llc, want.llc) {
			t.Errorf("workers=%d: LLC differs from the serial schedule", workers)
		}
		if !reflect.DeepEqual(got.hist, want.hist) {
			t.Errorf("workers=%d: shared history differs from the serial schedule", workers)
		}
		if !reflect.DeepEqual(got.consumed, want.consumed) {
			t.Errorf("workers=%d: stream positions differ from the serial schedule", workers)
		}
		if got.after != want.after {
			t.Errorf("workers=%d: detailed run after fast-forward differs from the serial schedule", workers)
		}
	}
}

// TestFastForwardRecyclesLogs: a closed system hands its fast-forward
// logs on, grown, to the next system assembled, so a sweep's cells do not
// each regrow them. The race detector makes the pool drop items at
// random, so the check runs without it; collection is paused so the pool
// is not emptied between the two systems.
func TestFastForwardRecyclesLogs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := testSystem(t, 4)
	if err := a.FastForward(context.Background(), 4*ffChunkRounds); err != nil {
		t.Fatal(err)
	}
	used := map[*ffPipe]bool{}
	for _, p := range a.eng.ffPipes {
		used[p] = true
	}
	a.Close()
	b := testSystem(t, 4)
	defer b.Close()
	if err := b.FastForward(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, p := range b.eng.ffPipes {
		if used[p] {
			reused++
		}
	}
	if reused == 0 {
		t.Error("the second system built fresh logs instead of reusing the first system's")
	}
}

// TestFastForwardScheduleChoice: a PhantomBTB system fast-forwards on the
// serial schedule, because its FastStep reads the group store other cores
// write; every other design steps its chunks on per-core goroutines ahead
// of the replay. Output comparisons cannot catch a wrong choice when the
// goroutines happen to run one after another. AirBTB is not StreamOnly
// and still takes the goroutines: the choice is PhantomBTB's alone.
func TestFastForwardScheduleChoice(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wire   func(c int, cfg *frontend.Config)
		serial bool
	}{
		{"Base1K", nil, false},
		{"Confluence", func() func(int, *frontend.Config) {
			h := shift.NewHistory(shift.DefaultConfig().HistoryEntries)
			return func(c int, cfg *frontend.Config) {
				cfg.BTB = airbtb.New(airbtb.DefaultConfig())
				cfg.PredecodePenalty = 2
				cfg.Prefetcher = shift.NewEngine(shift.DefaultConfig(), h, cfg.Hier.AvgLLCLatency(c))
				if c == 0 {
					cfg.Recorder = h
				}
			}
		}(), false},
		{"PhantomBTB+FDP", func() func(int, *frontend.Config) {
			store := phantom.NewStore(4 << 10)
			return func(c int, cfg *frontend.Config) {
				cfg.BTB = phantom.New("PhantomBTB", 256, 4, 64, store, cfg.Hier.AvgLLCLatency(c))
				cfg.Prefetcher = fdp.New(fdp.DefaultConfig())
			}
		}(), true},
	} {
		sys := testSystemWith(t, 4, tc.wire)
		sys.SetIntra(4)
		if err := sys.FastForward(context.Background(), 20_000); err != nil {
			t.Fatal(err)
		}
		if got := sys.eng.ffSerial; got != tc.serial {
			t.Errorf("%s: serial fast-forward schedule = %v, want %v", tc.name, got, tc.serial)
		}
	}
}
