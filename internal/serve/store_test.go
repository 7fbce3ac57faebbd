package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

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
		return ExecuteSpecStore(ctx, spec, dir, emit)
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

// TestJobStoreKeyNormalization pins what is — and is not — a distinct job
// in the store's eyes.
func TestJobStoreKeyNormalization(t *testing.T) {
	key := func(s *confluence.JobSpec) string {
		t.Helper()
		k, ok := jobStoreKey(s)
		if !ok {
			t.Fatalf("unexpectedly unkeyable: %+v", s)
		}
		return k
	}
	ref := key(tinySpec())

	// Scheduling knobs are not identity.
	prio := tinySpec()
	prio.Priority = 9
	if key(prio) != ref {
		t.Error("Priority changed the job store key")
	}
	par := tinySpec()
	par.Parallelism, par.IntraParallelism = 8, 4
	if key(par) != ref {
		t.Error("Parallelism knobs changed the job store key")
	}
	// Kind normalization: "" and "point" are the same shape.
	kp := tinySpec()
	kp.Kind = confluence.KindPoint
	if key(kp) != ref {
		t.Error(`Kind "point" diverged from the empty default`)
	}
	// Zero-means-default sentinels resolve.
	meas := tinySpec()
	meas.MeasureInstr = 0
	def := tinySpec()
	def.MeasureInstr = 1_500_000
	if key(meas) != key(def) {
		t.Error("explicit 1.5M measure diverged from the zero default")
	}
	// Result-shaping fields are identity.
	design := tinySpec()
	design.Design = "Confluence"
	if key(design) == ref {
		t.Error("design not part of the job store key")
	}
	// Pinned literals: job keys of stored entries must not move. The
	// compatibility field epoch_blocks stays in the key exactly as sent.
	if ref != "ecb06bd815aa146e2d317920105d01cdbcd5a817a14709bfd9b737f9dc3843d8" {
		t.Errorf("tinySpec job key = %s, moved from its pinned value", ref)
	}
	k1 := tinySpec()
	k1.EpochBlocks = 1
	if got := key(k1); got != "c4552d4bde0fce42770aac4ee1aeabb368070f7ce8a7caaca610eb44890561eb" {
		t.Errorf("tinySpec+epoch_blocks=1 job key = %s, moved from its pinned value", got)
	}

	// Trace replays are not job-level cacheable.
	tr := tinySpec()
	tr.TraceDir = t.TempDir()
	if _, ok := jobStoreKey(tr); ok {
		t.Error("trace-replay spec got a job store key")
	}
}

// TestDecodeJobResultRejectsGarbage: corrupt or schema-drifted payloads
// are misses, never half-populated results.
func TestDecodeJobResultRejectsGarbage(t *testing.T) {
	for _, payload := range []string{"", "null", "{}", `{"cells": []}`} {
		if _, ok := decodeJobResult([]byte(payload)); ok {
			t.Errorf("decodeJobResult(%q) accepted", payload)
		}
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
