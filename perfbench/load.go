package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/service"
	"repro/internal/spec"
)

// job is one generated submission.
type job struct {
	idx int
	sp  *spec.Spec // options embedded
	// hot is the job's index in the routed-store hot set, or -1.
	hot int
}

// body renders the job as the raw spec document a client POSTs.
func (j job) body() ([]byte, error) { return j.sp.Marshal() }

// sample is one completed (or failed) job as the client saw it.
type sample struct {
	job    job
	lat    time.Duration
	info   *service.JobInfo // terminal snapshot; nil on failure
	events int              // SSE events delivered while watching
	err    error
	end    time.Time
	spans  []span // client-side spans; nil unless traced
}

// ok reports whether the tier served a complete, canonical answer.
func (s *sample) ok() bool {
	return s.err == nil && s.info != nil && s.info.State == service.JobDone &&
		s.info.Result != nil && !s.info.Result.Cancelled && !s.info.Result.Degraded
}

// runJob submits one job and follows it to its terminal result: POST the
// raw spec, watch the SSE stream to the terminal event unless the answer
// came back with the submit (a cache hit), then fetch the job. With traced
// set, each step is recorded as a span.
func runJob(ctx context.Context, cl *api.Client, j job, traced bool) sample {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	s := sample{job: j}
	body, err := j.body()
	if err != nil {
		s.err = err
		return s
	}
	rec := &recorder{on: traced, run: "e2e", trace: j.idx}
	start := time.Now()
	root := rec.begin("client.job", -1, start)
	sub := rec.begin("client.submit", root, start)
	info, _, err := cl.SubmitBody(ctx, body)
	t := rec.end(sub)
	if err == nil && !info.State.Terminal() {
		w := rec.begin("client.watch", root, t)
		err = cl.Watch(ctx, info.ID, func(service.Event) bool { s.events++; return true })
		t = rec.end(w)
		if err == nil {
			g := rec.begin("client.get", root, t)
			info, err = cl.Job(ctx, info.ID)
			rec.end(g)
		}
	}
	s.end = time.Now()
	rec.endAt(root, s.end)
	s.lat = s.end.Sub(start)
	s.spans = rec.spans
	if err != nil {
		s.err = err
		return s
	}
	s.info = info
	if !s.ok() {
		s.err = fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	return s
}

// closedLoop runs one goroutine per client, each submitting the next job of
// next, to the client cl picks for it, as soon as their previous one
// completes, until stop returns true for the next index or the time limit
// passes. done, when set, is called with the number of jobs completed so
// far after each completion, while no other completion is recorded. It
// returns the samples in completion order and the wall time from the first
// submit to the last completion.
func closedLoop(cl func(job) *api.Client, next func(i int) job, limit time.Duration, stop func(i int) bool, traced func(i int) bool, done func(n int)) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		ctr     atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(limit)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(ctr.Add(1) - 1)
				if stop(i) {
					return
				}
				j := next(i)
				s := runJob(context.Background(), cl(j), j, traced(i))
				mu.Lock()
				samples = append(samples, s)
				if done != nil {
					done(len(samples))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// runList submits every job of list through the closed loop.
func runList(cl func(job) *api.Client, list []job) []sample {
	s, _ := closedLoop(cl, func(i int) job { return list[i] }, time.Hour,
		func(i int) bool { return i >= len(list) }, func(int) bool { return false }, nil)
	return s
}
