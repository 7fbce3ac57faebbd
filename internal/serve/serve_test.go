package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/frontend"
	"confluence/internal/synth"
)

// tinySpec is a fast real simulation (~milliseconds): one core, no
// warmup, a short measurement window.
func tinySpec() *confluence.JobSpec {
	return &confluence.JobSpec{
		Workload: "DSS-Qrys", Design: "Base1K",
		Cores: 1, NoWarmup: true, MeasureInstr: 20_000,
	}
}

// newTestServer starts a Server plus an httptest front end, both torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// blockUntil installs an execute hook that parks jobs until release is
// closed (or their context is cancelled). Install before any Submit.
func blockUntil(s *Server, release <-chan struct{}) {
	s.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
		select {
		case <-release:
			return &Result{Kind: spec.NormKind()}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// postJob submits a spec over HTTP and returns the response.
func postJob(t *testing.T, ts *httptest.Server, spec *confluence.JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeBody decodes a JSON response body into v and closes it.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// submitted posts spec expecting 202 and returns the accepted summary.
func submitted(t *testing.T, ts *httptest.Server, spec *confluence.JobSpec) Summary {
	t.Helper()
	resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var sum Summary
	decodeBody(t, resp, &sum)
	return sum
}

// waitState polls until the job reaches want (terminal mismatches fail
// immediately, a stuck job fails at the deadline).
func waitState(t *testing.T, s *Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st := j.State()
		if st == want {
			return
		}
		if st.terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s, want %s", id, st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitPollResultLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sum := submitted(t, ts, tinySpec())
	if sum.Kind != confluence.KindPoint || sum.Spec == nil {
		t.Fatalf("accepted summary = %+v", sum)
	}
	waitState(t, s, sum.ID, StateDone)

	var got Summary
	resp, err := http.Get(ts.URL + "/jobs/" + sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &got)
	if got.State != StateDone || got.Rows != 1 {
		t.Fatalf("status = %+v", got)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + sum.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	raw := struct {
		resultPage
		Rows []CellResult `json:"rows"`
	}{}
	decodeBody(t, resp, &raw)
	if raw.Total != 1 || len(raw.Rows) != 1 {
		t.Fatalf("result page: total=%d rows=%d", raw.Total, len(raw.Rows))
	}
	cell := raw.Rows[0]
	if cell.Design != "Base1K" || cell.Mix != "DSS-Qrys" || cell.Stats == nil || cell.Stats.IPC() <= 0 {
		t.Fatalf("cell = %+v", cell)
	}

	// Pagination past the end is empty but well-formed.
	resp, err = http.Get(ts.URL + "/jobs/" + sum.ID + "/result?offset=1")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &raw)
	if raw.Total != 1 || len(raw.Rows) != 0 {
		t.Fatalf("offset past end: total=%d rows=%d", raw.Total, len(raw.Rows))
	}

	// The list shows the one job.
	var list listPage
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list)
	if list.Total != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != sum.ID {
		t.Fatalf("list = %+v", list)
	}
	_ = s
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"unknown field":  `{"design":"Base1K","workload":"DSS-Qrys","frobnicate":1}`,
		"unknown design": `{"design":"Base9K","workload":"DSS-Qrys"}`,
		"missing design": `{"workload":"DSS-Qrys"}`,
		"trailing data":  `{"design":"Base1K","workload":"DSS-Qrys"}{}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: status %d, error %q", name, resp.StatusCode, e.Error)
		}
	}
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSSEOrdering checks the full event stream of a completed job:
// sequence numbers dense from 1, queued → started → cell… → done.
func TestSSEOrdering(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sum := submitted(t, ts, tinySpec())

	resp, err := http.Get(ts.URL + "/jobs/" + sum.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		events = append(events, e)
		if e.Type == "done" || e.Type == "failed" || e.Type == "cancelled" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 4 {
		t.Fatalf("stream had %d events, want at least queued/started/cell/done: %+v", len(events), events)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d (gaps or reordering)", i, e.Seq)
		}
	}
	if events[0].Type != "queued" || events[1].Type != "started" {
		t.Errorf("stream opens %s,%s; want queued,started", events[0].Type, events[1].Type)
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Errorf("stream ends with %s, want done", last.Type)
	}
	cells := 0
	for _, e := range events {
		if e.Type == "cell" {
			if e.Cell == nil || e.Cell.Design != "Base1K" {
				t.Errorf("cell event without payload: %+v", e)
			}
			cells++
		}
	}
	if cells != 1 {
		t.Errorf("saw %d cell events, want 1", cells)
	}
}

func TestQuota429(t *testing.T) {
	// The fake clock is read from handler goroutines, so guard it.
	var clockMu sync.Mutex
	clock := time.Unix(1000, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	s, ts := newTestServer(t, Config{Workers: 1, QuotaRPS: 0.5, QuotaBurst: 1, Now: now})
	release := make(chan struct{})
	defer close(release)
	blockUntil(s, release)

	submitted(t, ts, tinySpec()) // burst token spent

	resp := postJob(t, ts, tinySpec())
	var e errorBody
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without usable Retry-After (%q)", ra)
	}
	decodeBody(t, resp, &e)
	if e.Error == "" {
		t.Error("429 without an error body")
	}

	// A different client has its own bucket.
	body, _ := json.Marshal(tinySpec())
	req, _ := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	req.Header.Set("X-Client-ID", "other-client")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Errorf("distinct client: status %d, want 202", resp2.StatusCode)
	}

	// After the refill interval the original client is allowed again.
	clockMu.Lock()
	clock = clock.Add(2 * time.Second)
	clockMu.Unlock()
	resp3 := postJob(t, ts, tinySpec())
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Errorf("post-refill submit: status %d, want 202", resp3.StatusCode)
	}
}

func TestQueueFullSheds503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	blockUntil(s, release)

	running := submitted(t, ts, tinySpec())
	waitState(t, s, running.ID, StateRunning) // worker busy, queue empty
	queued := submitted(t, ts, tinySpec())    // fills the queue

	resp := postJob(t, ts, tinySpec())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var e errorBody
	decodeBody(t, resp, &e)
	if !strings.Contains(e.Error, "full") {
		t.Errorf("503 body = %q", e.Error)
	}

	// healthz reflects the saturated queue: one running, one queued.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	decodeBody(t, hresp, &h)
	if h.Running != 1 || h.Queued != 1 || h.Jobs != 2 || h.Draining {
		t.Errorf("healthz = %+v", h)
	}

	// Cancelling the queued job frees its slot immediately.
	cresp, err := http.Post(ts.URL+"/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	waitState(t, s, queued.ID, StateCancelled)
	again := postJob(t, ts, tinySpec())
	again.Body.Close()
	if again.StatusCode != http.StatusAccepted {
		t.Errorf("submit after cancel: status %d, want 202", again.StatusCode)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	blockUntil(s, release)

	sum := submitted(t, ts, tinySpec())
	waitState(t, s, sum.ID, StateRunning)

	resp, err := http.Post(ts.URL+"/jobs/"+sum.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, s, sum.ID, StateCancelled)

	// Terminal event is "cancelled"; result stays unavailable (409).
	j, _ := s.Job(sum.ID)
	evs, terminal := j.eventsSince(0, func() bool { return false })
	if !terminal || evs[len(evs)-1].Type != "cancelled" {
		t.Errorf("events = %+v, terminal=%v", evs, terminal)
	}
	rresp, err := http.Get(ts.URL + "/jobs/" + sum.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d, want 409", rresp.StatusCode)
	}

	// Cancelling again is a harmless no-op.
	resp, err = http.Post(ts.URL+"/jobs/"+sum.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("re-cancel: status %d", resp.StatusCode)
	}
}

// TestCancelMidSimulation cancels a real running simulation (huge
// instruction target) and expects the engine to stop early.
func TestCancelMidSimulation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	spec := tinySpec()
	spec.MeasureInstr = 2_000_000_000 // hours if not cancelled
	sum := submitted(t, ts, spec)
	waitState(t, s, sum.ID, StateRunning)

	resp, err := http.Post(ts.URL+"/jobs/"+sum.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, s, sum.ID, StateCancelled)
}

func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	blockUntil(s, release)

	a := submitted(t, ts, tinySpec())
	b := submitted(t, ts, tinySpec())
	waitState(t, s, a.ID, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Draining rejects new submissions with 503…
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postJob(t, ts, tinySpec())
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still accepted while draining (status %d)", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// …but already-accepted jobs run to completion.
	select {
	case err := <-drained:
		t.Fatalf("drain returned before jobs finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain never returned")
	}
	waitState(t, s, a.ID, StateDone)
	waitState(t, s, b.ID, StateDone)
}

func TestDrainTimeout(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	blockUntil(s, release)
	if _, err := s.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain of a stuck job returned nil under an expired context")
	}
}

// TestServerMatchesDirectRun is the serving determinism contract: the
// golden design point submitted as a JobSpec over HTTP returns stats
// byte-identical to the same Config run directly through the library,
// and both match the pinned golden file.
func TestServerMatchesDirectRun(t *testing.T) {
	// The spec form of golden_test.go's goldenWorkload + Confluence cell.
	seed := uint64(0x901d)
	spec := &confluence.JobSpec{
		Workload: "OLTP-DB2",
		Profile:  &confluence.ProfileTweak{Functions: 520, RequestTypes: 6, Concurrency: 6, Seed: &seed},
		Design:   "Confluence",
		Cores:    2, WarmupInstr: 30_000, MeasureInstr: 60_000,
	}

	s, ts := newTestServer(t, Config{Workers: 1})
	sum := submitted(t, ts, spec)
	waitState(t, s, sum.ID, StateDone)
	resp, err := http.Get(ts.URL + "/jobs/" + sum.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw := struct {
		Rows []CellResult `json:"rows"`
	}{}
	decodeBody(t, resp, &raw)
	if len(raw.Rows) != 1 {
		t.Fatalf("result rows = %d", len(raw.Rows))
	}
	served := raw.Rows[0]

	// The same cell, run directly — workload built by hand, not via the
	// spec, so the comparison covers the whole name→profile→build path.
	p := synth.OLTPDB2()
	p.Functions = 520
	p.RequestTypes = 6
	p.Concurrency = 6
	p.Seed = seed
	w, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := confluence.Run(confluence.Config{
		Workload: w, Design: confluence.Confluence, Cores: 2,
		WarmupInstr: 30_000, MeasureInstr: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantJSON := mustJSON(t, direct.Stats)
	gotJSON := mustJSON(t, served.Stats)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("served stats differ from direct run:\nserver: %s\ndirect: %s", gotJSON, wantJSON)
	}
	if served.OverheadMM2 != direct.OverheadMM2 || served.RelativeArea != direct.RelativeArea {
		t.Errorf("area: served (%v, %v) vs direct (%v, %v)",
			served.OverheadMM2, served.RelativeArea, direct.OverheadMM2, direct.RelativeArea)
	}
	if len(served.PerCore) != len(direct.PerCore) {
		t.Fatalf("per-core stats: %d vs %d", len(served.PerCore), len(direct.PerCore))
	}
	for i := range served.PerCore {
		if !bytes.Equal(mustJSON(t, served.PerCore[i]), mustJSON(t, direct.PerCore[i])) {
			t.Errorf("core %d stats differ between server and direct run", i)
		}
	}

	// And both agree with the committed golden file.
	var golden map[string]struct {
		IPC     float64 `json:"ipc"`
		L1IMPKI float64 `json:"l1i_mpki"`
		BTBMPKI float64 `json:"btb_mpki"`
	}
	data, err := os.ReadFile("../../testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	pin, ok := golden["Confluence"]
	if !ok {
		t.Fatal("golden file lacks the Confluence design")
	}
	checkClose(t, "IPC", served.Stats.IPC(), pin.IPC)
	checkClose(t, "L1IMPKI", served.Stats.L1IMPKI(), pin.L1IMPKI)
	checkClose(t, "BTBMPKI", served.Stats.BTBMPKI(), pin.BTBMPKI)
}

func mustJSON(t *testing.T, s *frontend.Stats) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkClose applies the golden file's 1e-9 relative tolerance.
func checkClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	if diff := math.Abs(got - want); diff > 1e-9*math.Max(math.Abs(want), 1) {
		t.Errorf("%s = %.12g, golden pins %.12g", what, got, want)
	}
}

// TestExecuteSpecMixStudy exercises the mixstudy path end to end at a
// tiny scale, checking canonical row order and progress delivery.
func TestExecuteSpecMixStudy(t *testing.T) {
	spec := &confluence.JobSpec{
		Kind:  confluence.KindMixStudy,
		Mix:   []string{"DSS-Qrys", "KeyValue"},
		Cores: 2, NoWarmup: true, MeasureInstr: 20_000,
		Designs: []string{"Confluence"},
	}
	var events []experiments.ProgressEvent
	res, err := ExecuteSpec(context.Background(), spec, "", func(e experiments.ProgressEvent) {
		events = append(events, e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != confluence.KindMixStudy || len(res.MixRows) == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.rowCount() != len(res.MixRows) {
		t.Errorf("rowCount %d != %d mix rows", res.rowCount(), len(res.MixRows))
	}
	if len(events) == 0 {
		t.Error("mixstudy produced no progress events")
	}
}

// TestExecuteSpecSampledMixStudy: a mixstudy's sample_* fields reach
// every cell. The sampled study's rows differ from the exact study's and
// equal Runner.MixStudyFor's run with the same sampling plan.
func TestExecuteSpecSampledMixStudy(t *testing.T) {
	exact := tinyMixStudy()
	exact.MeasureInstr = 200_000
	sampled := *exact
	sampled.SampleWindowInstr, sampled.SamplePeriodInstr, sampled.SampleWindows = 10_000, 50_000, 4
	var rows [2][]experiments.MixRow
	for i, spec := range []*confluence.JobSpec{exact, &sampled} {
		res, err := ExecuteSpec(context.Background(), spec, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = res.MixRows
	}
	if reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatalf("sampled mixstudy rows equal the exact ones: %+v", rows[1])
	}
	if want := mixStudyRunner(t, &sampled, ""); !reflect.DeepEqual(rows[1], want) {
		t.Errorf("sampled mixstudy rows diverge from the sampled runner's:\n%+v\nvs\n%+v", rows[1], want)
	}
}

// TestQueuePriorityOrder checks that queued jobs start highest-priority
// first, FIFO within a priority.
func TestQueuePriorityOrder(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []int // submission indexes, in start order
	s.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
		if spec.Workload == "OLTP-Oracle" { // the gate job holding the worker
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Result{Kind: spec.NormKind()}, nil
		}
		mu.Lock()
		order = append(order, int(spec.MeasureInstr)) // index smuggled in MeasureInstr
		mu.Unlock()
		return &Result{Kind: spec.NormKind()}, nil
	}

	gateSpec := tinySpec()
	gateSpec.Workload = "OLTP-Oracle"
	g, err := s.Submit(gateSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, g.ID, StateRunning) // worker busy; everything below queues

	var ids []string
	for i, p := range []int{0, 5, 5, 1} {
		spec := tinySpec()
		spec.Priority = p
		spec.MeasureInstr = uint64(i)
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	close(gate)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 3, 0} // priority 5 (FIFO among equals), then 1, then 0
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("start order %v, want %v", order, want)
	}
}
