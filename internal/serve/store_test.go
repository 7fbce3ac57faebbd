package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/store"
)

// fetchResult reads a finished job's full result page as raw JSON.
func fetchResult(t *testing.T, ts string, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts + "/jobs/" + id + "/result?limit=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	var buf json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestResubmitIsStoreHit pins the serving tentpole: an identical JobSpec
// re-submitted to a store-backed daemon completes instantly from the
// store — no queue slot, no worker — with the full event sequence and a
// result byte-identical to the live run's.
func TestResubmitIsStoreHit(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})

	first := submitted(t, ts, tinySpec())
	waitState(t, s, first.ID, StateDone)
	liveJob, _ := s.Job(first.ID)
	liveEvents, _ := liveJob.eventsSince(0, func() bool { return true })

	st := store.Open(dir)
	hitsBefore, _, _ := st.Counters()
	second := submitted(t, ts, tinySpec())
	// No waitState: a store-served job must already be done when Submit
	// returns.
	if second.State != StateDone {
		t.Fatalf("re-submitted job state = %s at accept time, want done", second.State)
	}
	if hitsAfter, _, _ := st.Counters(); hitsAfter == hitsBefore {
		t.Error("re-submission did not read the store")
	}

	// Event replay: same sequence shape as the live run (queued, started,
	// one cell, done) with dense seqs.
	servedJob, _ := s.Job(second.ID)
	servedEvents, terminal := servedJob.eventsSince(0, func() bool { return true })
	if !terminal {
		t.Error("store-served job not terminal")
	}
	if len(servedEvents) != len(liveEvents) {
		t.Fatalf("served job has %d events, live had %d", len(servedEvents), len(liveEvents))
	}
	for i := range servedEvents {
		if servedEvents[i].Type != liveEvents[i].Type || servedEvents[i].Seq != i+1 {
			t.Errorf("event %d: served (%s, seq %d) vs live (%s, seq %d)",
				i, servedEvents[i].Type, servedEvents[i].Seq, liveEvents[i].Type, liveEvents[i].Seq)
		}
		if servedEvents[i].Type == "cell" && !reflect.DeepEqual(servedEvents[i].Cell, liveEvents[i].Cell) {
			t.Errorf("cell event %d diverges: %+v vs %+v", i, servedEvents[i].Cell, liveEvents[i].Cell)
		}
	}

	// Result bytes: identical pages modulo the job ID.
	liveRes := fetchResult(t, ts.URL, first.ID)
	servedRes := fetchResult(t, ts.URL, second.ID)
	canon := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "id")
		return m
	}
	if !reflect.DeepEqual(canon(liveRes), canon(servedRes)) {
		t.Errorf("store-served result page diverges from live:\n%s\nvs\n%s", servedRes, liveRes)
	}
}

// TestStoreSurvivesDaemonRestart pins persistence across processes: a
// fresh Server on the same StoreDir — a restarted daemon — serves a
// previously-finished spec from the store without re-simulating.
func TestStoreSurvivesDaemonRestart(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	first := submitted(t, ts1, tinySpec())
	waitState(t, s1, first.ID, StateDone)
	liveRes := fetchResult(t, ts1.URL, first.ID)

	s2, ts2 := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	executed := false
	s2.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
		executed = true
		return ExecuteSpec(ctx, spec, dir, emit)
	}
	again := submitted(t, ts2, tinySpec())
	if again.State != StateDone {
		t.Fatalf("restarted daemon: job state = %s at accept time, want done", again.State)
	}
	if executed {
		t.Error("restarted daemon re-executed a stored spec")
	}
	servedRes := fetchResult(t, ts2.URL, again.ID)

	var a, b map[string]any
	if err := json.Unmarshal(liveRes, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(servedRes, &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "id")
	delete(b, "id")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("restarted daemon's stored result diverges from the original")
	}
}

// TestStoreHoldsOneEntryPerCell: a store-backed job persists its cells
// and nothing else — the per-cell store is the only result cache.
func TestStoreHoldsOneEntryPerCell(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	sum := submitted(t, ts, tinySpec())
	waitState(t, s, sum.ID, StateDone)
	if n := store.Open(dir).Len(); n != 1 {
		t.Errorf("store holds %d entries after a one-cell job, want 1", n)
	}
}

// neverExecute installs an execute hook that records each spec it is
// handed and parks it until the server closes: a job answered from the
// store never reaches it, and a queued one never finishes.
func neverExecute(s *Server) *atomic.Int64 {
	var calls atomic.Int64
	s.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
		calls.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return &calls
}

// TestResubmitAnsweredFromCells pins what the per-cell store treats as
// the same job: any spec whose cells have the same keys is answered at
// accept, whatever its scheduling knobs or spelling of a default, and a
// spec naming a different cell queues.
func TestResubmitAnsweredFromCells(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	defaultMeasure := tinySpec()
	defaultMeasure.MeasureInstr = 0
	for _, spec := range []*confluence.JobSpec{tinySpec(), defaultMeasure} {
		waitState(t, s, submitted(t, ts, spec).ID, StateDone)
	}
	calls := neverExecute(s)

	variant := func(edit func(*confluence.JobSpec)) *confluence.JobSpec {
		spec := tinySpec()
		edit(spec)
		return spec
	}
	for _, tc := range []struct {
		name string
		spec *confluence.JobSpec
		done bool
	}{
		{"priority", variant(func(s *confluence.JobSpec) { s.Priority = 9 }), true},
		{"parallelism", variant(func(s *confluence.JobSpec) { s.Parallelism, s.IntraParallelism = 8, 4 }), true},
		{"kind point", variant(func(s *confluence.JobSpec) { s.Kind = confluence.KindPoint }), true},
		{"explicit default measure", variant(func(s *confluence.JobSpec) { s.MeasureInstr = 1_500_000 }), true},
		{"epoch_blocks 1", variant(func(s *confluence.JobSpec) { s.EpochBlocks = 1 }), true},
		{"other design", variant(func(s *confluence.JobSpec) { s.Design = "Confluence" }), false},
	} {
		sum := submitted(t, ts, tc.spec)
		if got := sum.State == StateDone; got != tc.done {
			t.Errorf("%s: state %s at accept, want done = %v", tc.name, sum.State, tc.done)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d jobs reached the executor, want 1 (the other design)", n)
	}
}

// TestLibraryRunAnswersSubmission: a cell stored by a direct library run
// (confluence.RunCtx with StoreDir) answers a fresh daemon's submission
// of the same point at accept, with the library run's stats.
func TestLibraryRunAnswersSubmission(t *testing.T) {
	dir := t.TempDir()
	cfg, err := tinySpec().Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.StoreDir = dir
	direct, err := confluence.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	calls := neverExecute(s)
	sum := submitted(t, ts, tinySpec())
	if sum.State != StateDone {
		t.Fatalf("state %s at accept, want done", sum.State)
	}
	if calls.Load() != 0 {
		t.Error("a stored cell reached the executor")
	}
	var page struct {
		Rows []CellResult `json:"rows"`
	}
	if err := json.Unmarshal(fetchResult(t, ts.URL, sum.ID), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Rows) != 1 || !reflect.DeepEqual(page.Rows[0].Stats, direct.Stats) ||
		!reflect.DeepEqual(page.Rows[0].PerCore, direct.PerCore) {
		t.Errorf("served row diverges from the library run: %+v vs %+v", page.Rows, direct.Stats)
	}
}

// TestPartlyStoredSweepRunsMissingCells: a sweep with one of its two
// cells stored queues, and running it writes exactly the missing cell.
func TestPartlyStoredSweepRunsMissingCells(t *testing.T) {
	dir := t.TempDir()
	first := tinySweep()
	first.Workloads = first.Workloads[:1]
	if _, err := ExecuteSpec(context.Background(), first, dir, nil); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	st := store.Open(dir)
	_, _, writesBefore := st.Counters()
	sum := submitted(t, ts, tinySweep())
	if sum.State == StateDone {
		t.Fatal("partly stored sweep answered at accept")
	}
	waitState(t, s, sum.ID, StateDone)
	if _, _, writesAfter := st.Counters(); writesAfter-writesBefore != 1 {
		t.Errorf("job performed %d store writes, want 1 (the missing cell)", writesAfter-writesBefore)
	}
	if n := st.Len(); n != 2 {
		t.Errorf("store holds %d entries, want 2", n)
	}
}

// mixStudyRunner runs spec's study the way `confluence-sim -mix` does:
// through Runner.MixStudyFor over generated workloads, at the spec's
// scale and sampling plan, on the store in dir (none when empty).
func mixStudyRunner(t *testing.T, spec *confluence.JobSpec, dir string) []experiments.MixRow {
	t.Helper()
	var mix []*confluence.Workload
	for _, name := range spec.Mix {
		w, err := confluence.BuildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, w)
	}
	var designs []confluence.DesignPoint
	for _, name := range spec.Designs {
		dp, _ := confluence.DesignByName(name)
		designs = append(designs, dp)
	}
	r := experiments.NewRunnerFor(spec.Scale(), nil)
	r.Workers = 1
	r.Sampling = confluence.Sampling{
		WindowInstr: spec.SampleWindowInstr, PeriodInstr: spec.SamplePeriodInstr, Windows: spec.SampleWindows,
		WindowWarmupInstr: spec.SampleWindowWarmupInstr, JitterSeed: spec.SampleJitterSeed,
	}
	if dir != "" {
		r.Store = store.Open(dir)
	}
	rows, err := r.MixStudyFor(context.Background(), [][]*confluence.Workload{mix}, designs)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRunnerMixStudyAnswersSubmission: cells stored by Runner.MixStudyFor
// (the `confluence-sim -mix` path) answer the equal mixstudy submission
// at accept — already done, one cell event per cell, the runner's rows —
// and a re-submission of the finished study is answered the same way.
func TestRunnerMixStudyAnswersSubmission(t *testing.T) {
	dir := t.TempDir()
	spec := tinyMixStudy()
	direct := mixStudyRunner(t, spec, dir)
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	calls := neverExecute(s)
	for round := 0; round < 2; round++ {
		sum := submitted(t, ts, spec)
		if sum.State != StateDone {
			t.Fatalf("round %d: state %s at accept, want done", round, sum.State)
		}
		j, _ := s.Job(sum.ID)
		evs, _ := j.eventsSince(0, func() bool { return true })
		var n int
		for _, e := range evs {
			if e.Type == "cell" {
				n++
			}
		}
		if n != len(cells) {
			t.Errorf("round %d: %d cell events, want one per cell (%d)", round, n, len(cells))
		}
		var page struct {
			Rows []experiments.MixRow `json:"rows"`
		}
		if err := json.Unmarshal(fetchResult(t, ts.URL, sum.ID), &page); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(page.Rows, direct) {
			t.Errorf("round %d: served rows diverge from the runner's:\n%+v\nvs\n%+v", round, page.Rows, direct)
		}
	}
	if calls.Load() != 0 {
		t.Error("a stored mixstudy reached the executor")
	}
}

// TestNoStoreDirKeepsLegacyBehavior: without a StoreDir nothing touches
// the filesystem and every submission executes.
func TestNoStoreDirKeepsLegacyBehavior(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if s.store != nil {
		t.Fatal("store handle created without a StoreDir")
	}
	runs := 0
	s.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
		runs++
		return &Result{Kind: spec.NormKind()}, nil
	}
	for i := 0; i < 2; i++ {
		sum := submitted(t, ts, tinySpec())
		waitState(t, s, sum.ID, StateDone)
	}
	if runs != 2 {
		t.Errorf("identical specs executed %d times without a store, want 2", runs)
	}
}

// seededSweep is tinySweep over three workloads with a program seed no
// other test uses, so no program it needs can be alive beforehand.
func seededSweep(seed uint64) *confluence.JobSpec {
	spec := tinySweep()
	spec.Workloads = []string{"DSS-Qrys", "KeyValue", "Web-Frontend"}
	spec.Profile = &confluence.ProfileTweak{Seed: &seed}
	return spec
}

// buildsDuring returns how many programs run builds once the programs
// nothing holds have been collected (the table keeps at most one).
func buildsDuring(t *testing.T, run func() error) uint64 {
	t.Helper()
	runtime.GC()
	before := confluence.ProgramBuilds()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return confluence.ProgramBuilds() - before
}

// TestStoredCellsBuildNoProgram: a cell the store answers is given no
// program. A fully stored sweep builds none; a partly stored one builds
// only the workloads of its missing cells, and its result equals a run
// from an empty store.
func TestStoredCellsBuildNoProgram(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	full := seededSweep(0x51a7e)
	part := seededSweep(0x51a7e)
	part.Workloads = part.Workloads[:2]
	if n := buildsDuring(t, func() error { _, err := ExecuteSpec(ctx, part, dir, nil); return err }); n != 2 {
		t.Fatalf("empty store: %d builds for 2 workloads, want 2", n)
	}
	var got *Result
	if n := buildsDuring(t, func() (err error) { got, err = ExecuteSpec(ctx, full, dir, nil); return err }); n != 1 {
		t.Errorf("partly stored sweep built %d programs, want 1 (Web-Frontend, the missing cell's)", n)
	}
	want, err := ExecuteSpec(ctx, full, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("partly stored sweep's result differs from a run without a store")
	}
	if n := buildsDuring(t, func() error { _, err := ExecuteSpec(ctx, full, dir, nil); return err }); n != 0 {
		t.Errorf("fully stored sweep built %d programs, want 0", n)
	}
}
