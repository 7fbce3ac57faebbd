package serve

// BenchmarkServeLatency measures end-to-end job latency through the HTTP
// serving layer — submit over the wire, poll to completion — under 1, 8,
// and 64 concurrent clients, reporting p50/p99 per-job latency in
// milliseconds as custom metrics. Every job is the same tiny point cell
// (DSS-Qrys, one core, 5k instructions) on a daemon without a store, so
// each job simulates the cell again, but its program is built once per
// process: the first job builds it and the program table hands the same
// program to every later one. A job's latency is therefore the serving
// overhead (queueing behind the other clients' jobs, JSON, polling) plus
// one tiny simulation; B/op and allocs/op are per job and include both.
//
// Record a snapshot with the Makefile's bench-serve target (commits as
// BENCH_pr6_serve.json via cmd/benchjson).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

func BenchmarkServeLatency(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServeLatency(b, clients)
		})
	}
}

func benchServeLatency(b *testing.B, clients int) {
	s := New(Config{Workers: 2, QueueDepth: 2*clients + 64})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := tinySpec()
	spec.MeasureInstr = 5_000
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}

	// oneJob is a full client interaction: submit, poll until terminal.
	oneJob := func() (time.Duration, error) {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		var sum Summary
		err = json.NewDecoder(resp.Body).Decode(&sum)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return 0, fmt.Errorf("submit: status %d", resp.StatusCode)
		}
		for {
			resp, err := http.Get(ts.URL + "/jobs/" + sum.ID)
			if err != nil {
				return 0, err
			}
			err = json.NewDecoder(resp.Body).Decode(&sum)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
			if sum.State.terminal() {
				if sum.State != StateDone {
					return 0, fmt.Errorf("job ended %s", sum.State)
				}
				return time.Since(start), nil
			}
			time.Sleep(time.Millisecond)
		}
	}

	var (
		mu    sync.Mutex
		lats  []float64 // milliseconds
		first error
	)
	jobs := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				lat, err := oneJob()
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				lats = append(lats, float64(lat)/float64(time.Millisecond))
				mu.Unlock()
			}
		}()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs <- struct{}{}
	}
	close(jobs)
	wg.Wait()
	b.StopTimer()

	if first != nil {
		b.Fatal(first)
	}
	sort.Float64s(lats)
	quantile := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	b.ReportMetric(quantile(0.50), "p50-ms")
	b.ReportMetric(quantile(0.99), "p99-ms")
	b.ReportMetric(float64(len(lats)), "jobs")
}
