package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"confluence"
	"confluence/internal/serve"
)

// serveClients is the number of closed-loop clients: each submits its
// next job only after the previous one's result arrived. With one
// executor worker, a job typically waits for the other client's job.
const serveClients = 2

// serveBench drives an in-process confluence-serve daemon over loopback
// HTTP, the way a client of the daemon would.
type serveBench struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // Serve's return value
	base   string
	client *http.Client

	specs [][]byte    // the next sweep's job specs
	first []servedJob // sweep 0's jobs, checked against direct runs
}

// servedJob is one job as the client saw it.
type servedJob struct {
	spec          []byte
	acceptedState string // the job's state in the submit response
	print         string // fingerprint of the served cell
	latency       time.Duration
	queue         time.Duration // accepted → started
	service       time.Duration // started → done
	stats         *confluence.Stats
	perCore       []*confluence.Stats
}

// jobCovered is the simulated instructions one job stands for.
const jobCovered = gridCores * (gridWarmup + gridMeasure)

// jobSpec is one grid cell as a point job. Every job gets its own program
// seed, so neither the job-level nor the cell-level store can answer it
// from an earlier job.
func jobSpec(progSeed uint64, workload, design string) ([]byte, error) {
	return json.Marshal(&confluence.JobSpec{
		Workload:     workload,
		Design:       design,
		Profile:      &confluence.ProfileTweak{Seed: &progSeed},
		Cores:        gridCores,
		WarmupInstr:  gridWarmup,
		MeasureInstr: gridMeasure,
	})
}

// setup starts the daemon and waits for its first job.
func (s *serveBench) setup(r *runner) error {
	dir, err := os.MkdirTemp(r.dir, "serve-store-")
	if err != nil {
		return err
	}
	s.srv = serve.New(serve.Config{Workers: 1, QueueDepth: 64, StoreDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Timeout: 60 * time.Second}

	spec, err := jobSpec(mix64(r.seed, 0xfeed), confluence.PaperWorkloadNames()[0], "Confluence")
	if err != nil {
		return err
	}
	_, err = s.do(spec)
	return err
}

// teardown stops the HTTP server and the daemon and waits for both.
func (s *serveBench) teardown() {
	if s.hs == nil {
		return
	}
	s.hs.Close()
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.hs = nil
}

// prepare writes sweep n's job specs: the grid with fresh program seeds.
func (s *serveBench) prepare(r *runner, n int) error {
	s.specs = s.specs[:0]
	for w, name := range confluence.PaperWorkloadNames() {
		seed := mix64(r.seed, uint64(n), uint64(w))
		for _, d := range gridDesigns {
			spec, err := jobSpec(seed, name, d)
			if err != nil {
				return err
			}
			s.specs = append(s.specs, spec)
		}
	}
	return nil
}

func (s *serveBench) sweep(ctx context.Context, r *runner, n int) error {
	specs := s.specs
	jobs := make([]servedJob, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) || ctx.Err() != nil {
					return
				}
				jobs[i], errs[i] = s.do(specs[i])
			}
		}()
	}
	wg.Wait()
	r.sweepS = append(r.sweepS, time.Since(start).Seconds())

	for i := range jobs {
		r.attempted++
		j := &jobs[i]
		if errs[i] != nil {
			r.failed++
			r.problem("job %d of sweep %d: %v", i, n, errs[i])
			continue
		}
		ms := j.latency.Seconds() * 1000
		r.unitMs = append(r.unitMs, ms)
		r.wall.latency += ms
		r.wall.queue += j.queue.Seconds() * 1000
		r.wall.transport += (j.latency - j.queue - j.service).Seconds() * 1000
		r.instr += jobCovered
		r.model.add(j.stats, jobCovered, jobCovered)
		if err := checkStats(j.stats, j.perCore, uint64(gridCores)*gridMeasure); err != nil {
			r.problem("job %d of sweep %d: %v", i, n, err)
		}
	}
	if n == 0 {
		s.first = jobs
	}
	return nil
}

// verify checks the model against pinned numbers, the daemon's answers
// against direct library runs of the same specs (the serving determinism
// contract) — one job per workload, each with another design, to bound
// the time it takes — and that re-submitting a finished spec is answered
// identically from the store: done when accepted, never queued.
func (s *serveBench) verify(ctx context.Context, r *runner) {
	checkGolden(ctx, r, false)
	for i, j := range s.first {
		if j.stats == nil || i%len(gridDesigns) != (i/len(gridDesigns))%len(gridDesigns) {
			continue
		}
		spec, err := confluence.ParseJobSpec(j.spec)
		if err != nil {
			r.problem("job %d: %v", i, err)
			continue
		}
		cfg, err := spec.Config()
		if err != nil {
			r.problem("job %d: %v", i, err)
			continue
		}
		res, err := confluence.RunCtx(ctx, cfg)
		if err != nil {
			r.problem("direct run of job %d: %v", i, err)
			continue
		}
		if fingerprint(res.Stats, res.PerCore) != j.print {
			r.problem("job %d: served stats differ from a direct run", i)
		}
	}
	if len(s.first) == 0 || s.first[0].stats == nil {
		return
	}
	again, err := s.do(s.first[0].spec)
	switch {
	case err != nil:
		r.problem("re-submitted job: %v", err)
	case again.acceptedState != "done":
		r.problem("re-submitted job: accepted as %q, not answered from the store", again.acceptedState)
	case again.print != s.first[0].print:
		r.problem("re-submitted job: stored answer differs from the first")
	}
}

// do runs one job through the HTTP API — submit, follow the event stream
// to a terminal event, fetch the result — timing each stage.
func (s *serveBench) do(spec []byte) (servedJob, error) {
	j := servedJob{spec: spec}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return j, err
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = decodeBody(resp, http.StatusAccepted, &sub)
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	accepted := time.Now()
	j.acceptedState = sub.State

	started, done, err := s.follow(sub.ID)
	if err != nil {
		return j, err
	}
	var page struct {
		Total int `json:"total"`
		Rows  []struct {
			Stats   *confluence.Stats   `json:"stats"`
			PerCore []*confluence.Stats `json:"per_core"`
		} `json:"rows"`
	}
	resp, err = s.client.Get(s.base + "/jobs/" + sub.ID + "/result")
	if err != nil {
		return j, err
	}
	if err := decodeBody(resp, http.StatusOK, &page); err != nil {
		return j, fmt.Errorf("result: %w", err)
	}
	if page.Total != 1 || len(page.Rows) != 1 || page.Rows[0].Stats == nil {
		return j, fmt.Errorf("result: want one cell, got %d", len(page.Rows))
	}
	j.latency = time.Since(t0)
	j.queue = started.Sub(accepted)
	j.service = done.Sub(started)
	j.stats, j.perCore = page.Rows[0].Stats, page.Rows[0].PerCore
	j.print = fingerprint(j.stats, j.perCore)
	return j, nil
}

// follow reads a job's event stream until its terminal event, returning
// when the "started" and "done" events arrived. Event sequence numbers
// must be dense from 1.
func (s *serveBench) follow(id string) (started, done time.Time, err error) {
	resp, err := s.client.Get(s.base + "/jobs/" + id + "/events")
	if err != nil {
		return started, done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return started, done, fmt.Errorf("events: status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	seq := 0
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e struct {
			Seq   int    `json:"seq"`
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return started, done, fmt.Errorf("events: %w", err)
		}
		if seq++; e.Seq != seq {
			return started, done, fmt.Errorf("events: seq %d after %d", e.Seq, seq-1)
		}
		switch e.Type {
		case "started":
			started = time.Now()
		case "done":
			return started, time.Now(), nil
		case "failed", "cancelled":
			return started, done, fmt.Errorf("job %s %s: %s", id, e.Type, e.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return started, done, err
	}
	return started, done, errors.New("events: stream ended before a terminal event")
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("status %s: %s", resp.Status, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
