package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/fxsim"
	"repro/internal/service"
	"repro/internal/sfg"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wlopt"
)

// replayer re-runs jobs in-process through each layer's public functions,
// the way internal/service runs them: one shared engine with the daemon's
// bin count and plan-cache size, one graph per digest, budget probe at the
// uniform width, then the strategy.
type replayer struct {
	eng    *core.Engine
	graphs map[string]*sfg.Graph
	done   map[string]bool // result keys already computed
	st     *store.Store    // nil unless replaying store calls
}

// graphCacheSize mirrors the service's default graph and plan cache.
const graphCacheSize = 16

func newReplayer(npsd int) *replayer {
	if npsd <= 0 {
		npsd = 256 // the service default
	}
	eng := core.NewEngine(npsd, 1)
	eng.SetPlanCacheCap(graphCacheSize)
	return &replayer{eng: eng, graphs: map[string]*sfg.Graph{}, done: map[string]bool{}}
}

// storedResult mirrors the service's persisted result record.
type storedResult struct {
	Res    *wlopt.Result
	Budget float64
}

// layerTimes is one job's replayed layer calls, zero for calls the
// service would not make for that job (a cached result skips everything
// after the digest, a warm graph skips the builds), and its answer.
type layerTimes struct {
	decode, digest, build, plan, probe, search, put, get time.Duration
	ran                                                  bool
	res                                                  *wlopt.Result
	budget                                               float64
}

// run replays one job. With rec recording, each call is a span.
func (r *replayer) run(j job, rec *recorder) (layerTimes, error) {
	var lt layerTimes
	body, err := j.body()
	if err != nil {
		return lt, err
	}
	var req service.Request
	if lt.decode, err = rec.timeCall("api.decode", func() (err error) {
		req, err = api.ParseSubmitBody(body)
		return err
	}); err != nil {
		return lt, err
	}
	var digest string
	if lt.digest, err = rec.timeCall("spec.digest", func() (err error) {
		digest, err = req.Spec.Digest()
		return err
	}); err != nil {
		return lt, err
	}
	opts := req.Spec.Options.WithDefaults()
	key := digest + "|" + opts.Fingerprint()
	if r.done[key] {
		return lt, nil
	}
	lt.ran = true
	g, ok := r.graphs[digest]
	if !ok {
		if lt.build, err = rec.timeCall("graph.build", func() (err error) {
			g, err = req.Spec.Build()
			return err
		}); err != nil {
			return lt, err
		}
		if lt.plan, err = rec.timeCall("plan.build", func() error {
			_, err := r.eng.EnsurePlan(g)
			return err
		}); err != nil {
			return lt, err
		}
		r.graphs[digest] = g
	}
	lt.budget = opts.Budget
	if opts.BudgetWidth > 0 {
		if lt.probe, err = rec.timeCall("budget.probe", func() error {
			p, err := r.eng.EvaluateAssignment(g, core.UniformAssignment(g.NoiseSources(), opts.BudgetWidth))
			if err == nil {
				lt.budget = p.Power
			}
			return err
		}); err != nil {
			return lt, err
		}
	}
	if lt.search, err = rec.timeCall("search", func() (err error) {
		lt.res, err = wlopt.RunStrategy(g, opts.Strategy, wlopt.Options{
			Budget:       lt.budget,
			MinFrac:      opts.MinFrac,
			MaxFrac:      opts.MaxFrac,
			CostPerBit:   opts.CostPerBit,
			Evaluator:    r.eng,
			Seed:         opts.Seed,
			AnnealRounds: opts.AnnealRounds,
		})
		return err
	}); err != nil {
		return lt, err
	}
	r.done[key] = true
	if r.st != nil {
		rk := store.ResultKey(digest, opts.Fingerprint())
		if lt.put, err = rec.timeCall("store.put", func() error {
			return r.st.Put(store.KindResult, rk, &storedResult{Res: lt.res, Budget: lt.budget})
		}); err != nil {
			return lt, err
		}
		if lt.get, err = rec.timeCall("store.probe", func() error {
			var back storedResult
			if !r.st.Get(store.KindResult, rk, &back) {
				return fmt.Errorf("store probe of %s missed", rk)
			}
			return nil
		}); err != nil {
			return lt, err
		}
	}
	return lt, nil
}

// checkServed compares a served answer with an in-process replay of the
// same job. Assignment, noise power, cost and budget must be bit-identical.
func checkServed(r *replayer, s *sample) error {
	digest, err := s.job.sp.Digest()
	if err != nil {
		return err
	}
	if s.info.Digest != digest {
		return fmt.Errorf("job %d: served digest %s, spec digest %s", s.job.idx, s.info.Digest, digest)
	}
	// Replay on a fresh key: a result already replayed for this key is
	// recomputed, not skipped.
	delete(r.done, digest+"|"+s.job.sp.Options.WithDefaults().Fingerprint())
	lt, err := r.run(s.job, &recorder{})
	if err != nil {
		return fmt.Errorf("job %d: replay: %w", s.job.idx, err)
	}
	got, want := s.info.Result, lt.res
	if math.Float64bits(got.Power) != math.Float64bits(want.Power) ||
		math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
		math.Float64bits(s.info.Budget) != math.Float64bits(lt.budget) {
		return fmt.Errorf("job %d (%s): served power %v cost %v budget %v, replay %v %v %v",
			s.job.idx, s.info.ID, got.Power, got.Cost, s.info.Budget, want.Power, want.Cost, lt.budget)
	}
	if len(got.Fracs) != len(want.Fracs) {
		return fmt.Errorf("job %d: served %d widths, replay %d", s.job.idx, len(got.Fracs), len(want.Fracs))
	}
	for name, f := range want.Fracs {
		if got.Fracs[name] != f {
			return fmt.Errorf("job %d: source %s served %d bits, replay %d", s.job.idx, name, got.Fracs[name], f)
		}
	}
	return nil
}

// simSamples is the Monte-Carlo stimulus length of the accuracy check:
// long enough that the simulation's own noise moves the comb family's
// largest |Ed| (about 1.3%) by only about a tenth of a percentage point.
const simSamples = 1 << 20

// estErrPct simulates the served assignment with fxsim and returns the
// paper's |Ed| between the served noise-power estimate and the simulated
// power, in percent.
func estErrPct(s *sample) (float64, error) {
	g, err := s.job.sp.Build()
	if err != nil {
		return 0, err
	}
	for _, id := range g.NoiseSources() {
		n := g.Node(id)
		f, ok := s.info.Result.Fracs[n.Noise.Name]
		if !ok {
			return 0, fmt.Errorf("job %d: no served width for source %s", s.job.idx, n.Noise.Name)
		}
		n.Noise.Frac = f
	}
	out, err := fxsim.RunParallel(g, fxsim.Config{Samples: simSamples, Seed: 1}, 2)
	if err != nil {
		return 0, err
	}
	return 100 * math.Abs(stats.Ed(out.Power, s.info.Result.Power)), nil
}

// svcSample is one job run through an in-process service.Manager.
type svcSample struct {
	wait            time.Duration // SubmitCtx → Wait returned
	queued, running time.Duration // Started−Submitted, Finished−Started
	hit, ran        bool
}

// serviceReplay runs warm then list through in-process managers, one per
// backend of the tier, with each job sent to the manager of the backend
// that served it (owner). Managers mirror the daemon flags of the
// workload. Samples are returned in list order.
func serviceReplay(w *workload, dir string, warm, list []job, owner func(j job) int) (warmOut, listOut []svcSample, err error) {
	mgrs := make([]*service.Manager, w.backends)
	for i := range mgrs {
		cfg := service.Config{NPSD: w.npsd, Workers: w.workers, NodeID: nodeName(i)}
		if w.store {
			st, err := store.Open(filepath.Join(dir, "replay-"+nodeName(i)))
			if err != nil {
				return nil, nil, err
			}
			cfg.Store = st
		}
		mgrs[i] = service.New(cfg)
	}
	defer func() {
		for _, m := range mgrs {
			m.Close()
		}
		for i := range mgrs {
			_ = os.RemoveAll(filepath.Join(dir, "replay-"+nodeName(i)))
		}
	}()
	run := func(list []job) ([]svcSample, error) {
		out := make([]svcSample, len(list))
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(list) {
						return
					}
					m := mgrs[owner(list[i])]
					start := time.Now()
					info, err := m.SubmitCtx(context.Background(), service.Request{Spec: list[i].sp})
					if err == nil && !info.State.Terminal() {
						info, err = m.Wait(context.Background(), info.ID)
					}
					if err == nil && info.State != service.JobDone {
						err = fmt.Errorf("in-process job %d ended %s: %s", list[i].idx, info.State, info.Error)
					}
					if err != nil {
						errs[c] = err
						return
					}
					s := svcSample{wait: time.Since(start), hit: info.CacheHit}
					if info.Started != nil && info.Finished != nil {
						s.ran = true
						s.queued = info.Started.Sub(info.Submitted)
						s.running = info.Finished.Sub(*info.Started)
					}
					out[i] = s
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if warmOut, err = run(warm); err != nil {
		return nil, nil, err
	}
	listOut, err = run(list)
	return warmOut, listOut, err
}
