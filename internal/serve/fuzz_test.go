package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"confluence"
	"confluence/internal/experiments"
	"confluence/internal/store"
)

// FuzzServeHandlers drives the HTTP API with arbitrary submit bodies and
// arbitrary cursor and pagination parameters, against a store-backed
// daemon whose executor is stubbed (fuzzing must not simulate). The
// daemon must never panic, must accept (202) exactly the bodies
// ParseJobSpec accepts, and must consult the store at accept for every
// accepted spec that names its cells. The store holds tinySpec's cell, so
// inputs near that seed also exercise the answered-at-accept path.
func FuzzServeHandlers(f *testing.F) {
	dir := f.TempDir()
	if _, err := ExecuteSpec(context.Background(), tinySpec(), dir, nil); err != nil {
		f.Fatal(err)
	}
	st := store.Open(dir)
	for _, spec := range []*confluence.JobSpec{tinySpec(), tinySweep(),
		{Kind: confluence.KindMixStudy, Mix: []string{"DSS-Qrys", "KeyValue"}, Designs: []string{"Ideal"}},
		{TraceDir: "no-such-capture", Design: "Base1K"},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "0", "0", "1")
		f.Add(body, "2", "-1", "1000000")
	}
	f.Add([]byte(`{"kind":"sweep","designs":["Base1K","Base1K"]}`), "99", "9223372036854775807", "-3")
	f.Add([]byte(`not json`), "x", "", "")

	f.Fuzz(func(t *testing.T, body []byte, after, offset, limit string) {
		s := New(Config{Workers: 1, StoreDir: dir})
		defer s.Close()
		s.execute = func(ctx context.Context, spec *confluence.JobSpec, emit func(experiments.ProgressEvent)) (*Result, error) {
			return &Result{Kind: spec.NormKind(), Cells: make([]CellResult, 3), MixRows: make([]experiments.MixRow, 3)}, nil
		}
		h := s.Handler()
		serve := func(method, target string, header http.Header) *httptest.ResponseRecorder {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			req := httptest.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
			for k, v := range header {
				req.Header[k] = v
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}

		hits, misses, _ := st.Counters()
		rec := serve(http.MethodPost, "/jobs", nil)
		spec, parseErr := confluence.ParseJobSpec(body)
		if accepted := rec.Code == http.StatusAccepted; accepted != (parseErr == nil) {
			t.Fatalf("POST /jobs = %d for a body ParseJobSpec judges %v:\n%s", rec.Code, parseErr, body)
		}
		id := "j000001"
		if parseErr == nil {
			if _, err := spec.Cells(); err == nil {
				if h2, m2, _ := st.Counters(); h2+m2 == hits+misses {
					t.Fatalf("accepted spec was not looked up in the store:\n%s", body)
				}
			}
			var sum Summary
			if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil || sum.ID != id {
				t.Fatalf("accepted summary %q does not decode to job %s: %v", rec.Body, id, err)
			}
			j, _ := s.Job(id)
			for n := 0; ; {
				evs, terminal := j.eventsSince(n, func() bool { return false })
				if n += len(evs); terminal {
					break
				}
			}
		}

		page := url.Values{"offset": {offset}, "limit": {limit}}.Encode()
		if code := serve(http.MethodGet, "/jobs?"+page, nil).Code; code != http.StatusOK {
			t.Fatalf("GET /jobs?%s = %d", page, code)
		}
		want := http.StatusNotFound
		if parseErr == nil {
			want = http.StatusOK
		}
		if code := serve(http.MethodGet, "/jobs/"+id+"/result?"+page, nil).Code; code != want {
			t.Fatalf("GET result?%s = %d, want %d", page, code, want)
		}
		cursor := url.Values{"after": {after}}.Encode()
		code := serve(http.MethodGet, "/jobs/"+id+"/events?"+cursor, http.Header{"Last-Event-Id": {after}}).Code
		if code != want && code != http.StatusBadRequest {
			t.Fatalf("GET events?%s = %d", cursor, code)
		}
	})
}
