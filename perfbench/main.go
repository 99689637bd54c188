// Command perfbench is the repository's end-to-end benchmark. It drives the
// real serving tier (cmd/wloptd, and cmd/wloptr in front of it for the
// routed workload) over loopback in a closed loop of two clients, checks
// every answer, and prints one JSON result line:
//
//	perfbench -workload cold-edge -seed 1 -seconds 20 -trace 0 -bin <dir> -work <dir>
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1
// it carries per-layer metrics instead: the benchmark additionally replays
// the same generated jobs in-process through each layer's public
// functions, with spans recorded around every call, prints a layer table
// to stderr and writes the spans under -work. run.py builds the binaries
// and calls this program; see README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/perfbench/gen"
)

const (
	clients = 2 // closed-loop clients, one per CPU of the reference host
	// setups is how many times a -trace 0 run sets the tier up; setup_s is
	// the median.
	setups = 5
	// gateSample is how many served answers per run are replayed
	// in-process and must match bit for bit.
	gateSample = 16
	// errSample is how many served answers per run are simulated with
	// fxsim for est_err_pct_max.
	errSample = 8
	// replayJobs caps the timed jobs replayed in-process by a traced run.
	replayJobs = 300
	// hopList is the number of cached answers the router-hop passes
	// resubmit, hopRounds how often each pass repeats them.
	hopList, hopRounds = 48, 4
	// windowJobs is the length of one measurement window in consecutive
	// completed jobs: enough to leave ten samples beyond its p99.
	windowJobs = 1000
	// warmJobs is the cold-edge warm-up pass: long enough that set-up
	// time is mostly job work, not process start.
	warmJobs = 200
)

// workload is one traffic mix against one tier shape.
type workload struct {
	name              string
	backends, workers int
	npsd              int                // -npsd of every backend; 0 = daemon default
	store, routed     bool               // backends keep a warm store; clients go through wloptr
	warm              []job              // set-up pass: warm-up, or one read of each stored key
	next              func(i int) job    // i-th timed job
	sampleFrom        int                // seeded samples come from the first sampleFrom timed jobs
	key               func(j job) string // identity of an answer for sampling
}

// hotSet is the routed-store hot-set size: larger than the two backends'
// 128-entry result caches together, so some hits are store reads.
const hotSet = 320

// sweepGraphs is how many graphs a budget sweep cycles through, fewer than
// the service's 16-entry graph cache.
const sweepGraphs = 6

func workloads(seed int64) map[string]func() *workload {
	combKey := func(j job) string { return j.sp.Name }
	return map[string]func() *workload{
		"cold-edge": func() *workload {
			w := &workload{name: "cold-edge", backends: 1, workers: 2, sampleFrom: 400, key: combKey}
			for i := 0; i < warmJobs; i++ {
				w.warm = append(w.warm, job{idx: -1 - i, sp: gen.Comb(seed, 0, i), hot: -1})
			}
			w.next = func(i int) job { return job{idx: i, sp: gen.Comb(seed, 0, len(w.warm)+i), hot: -1} }
			return w
		},
		"budget-sweep": func() *workload {
			graphs := make([]*spec.Spec, sweepGraphs)
			for k := range graphs {
				graphs[k] = gen.Sweep(seed, k)
			}
			perPass := len(graphs) * len(gen.SweepWidths) * len(gen.Strategies)
			w := &workload{name: "budget-sweep", backends: 1, workers: 2, npsd: 1024,
				sampleFrom: perPass,
				key: func(j job) string {
					return fmt.Sprintf("%s/%d", j.sp.Name, j.sp.Options.BudgetWidth)
				}}
			// Warm-up is pass 0, which builds every graph and plan and is
			// never timed.
			for i := 0; i < perPass; i++ {
				w.warm = append(w.warm, job{idx: -1 - i, sp: gen.SweepOrder(graphs, i), hot: -1})
			}
			w.next = func(i int) job { return job{idx: i, sp: gen.SweepOrder(graphs, perPass+i), hot: -1} }
			return w
		},
		"routed-store": func() *workload {
			hot := make([]*spec.Spec, hotSet)
			for h := range hot {
				hot[h] = gen.Comb(seed, 1, h)
			}
			w := &workload{name: "routed-store", backends: 2, workers: 1, store: true, routed: true,
				sampleFrom: 400, key: combKey}
			for h, sp := range hot {
				w.warm = append(w.warm, job{idx: -1 - h, sp: sp, hot: h})
			}
			w.next = func(i int) job {
				h := gen.Pick(seed, 2, i, hotSet)
				return job{idx: i, sp: hot[h], hot: h}
			}
			return w
		},
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "cold-edge", "cold-edge | budget-sweep | routed-store")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "timed-phase length in seconds")
		traced  = flag.Int("trace", 0, "1 = per-layer run with spans; 0 = end-to-end run")
		bin     = flag.String("bin", "", "directory holding the wloptd and wloptr binaries")
		work    = flag.String("work", "", "scratch directory for stores and span files")
	)
	flag.Parse()
	mk, ok := workloads(*seed)[*name]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need a known -workload, -bin, -work and -seconds >= 1")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: mk(), seed: *seed, limit: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, bin: *bin, dir: dir}
	res, err := b.run()
	// Stores and replay scratch go; the span file stays beside dir.
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	seed   int64
	limit  time.Duration
	traced bool
	bin    string
	dir    string

	hc      *httpClients
	tier    *tier
	warmOut []sample // the kept tier's set-up samples
	// store holds the filled stores a store-backed workload's set-ups boot
	// on, primeOut the answers computed while filling them.
	store    string
	primeOut []sample
	// setupWrites counts store writes made during timed set-ups.
	setupWrites int64
	// keys are the routing keys (spec digests) of the set-up pass, which
	// a routed tier's ring must split evenly.
	keys []string
}

// httpClients hands out one typed client per base URL, each with its own
// pool of kept-alive connections.
type httpClients struct {
	mu   sync.Mutex
	m    map[string]*api.Client
	http []*http.Client
}

func (h *httpClients) get(url string) *api.Client {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.m[url]; ok {
		return c
	}
	hc := newHTTPClient()
	c := api.NewClient(url, hc)
	h.m[url] = c
	h.http = append(h.http, hc)
	return c
}

// stopTier stops t after closing every idle client connection: a
// connection the transport dialed but never used looks new to the server,
// whose graceful shutdown waits five seconds for it.
func (b *bench) stopTier(t *tier) {
	b.hc.mu.Lock()
	for _, hc := range b.hc.http {
		hc.CloseIdleConnections()
	}
	b.hc.mu.Unlock()
	t.stop()
}

func (b *bench) tierConfig(store string) tierConfig {
	return tierConfig{bin: b.bin, backends: b.w.backends, workers: b.w.workers, npsd: b.w.npsd,
		router: b.w.routed, store: store, keys: b.keys}
}

// runWarm runs the set-up pass against the tier's entry point and checks
// that every job was served.
func (b *bench) runWarm(t *tier) ([]sample, error) {
	entry := b.hc.get(t.entry())
	out := runList(func(job) *api.Client { return entry }, b.w.warm)
	for i := range out {
		if s := &out[i]; !s.ok() {
			return nil, fmt.Errorf("set-up job %d: %v", s.job.idx, s.err)
		}
	}
	return out, nil
}

// primeStore fills a store-backed workload's stores once, untimed: a tier
// on empty stores computes the set-up pass, and every job of it writes and
// fsyncs a journal entry, a result and a plan. Then every backend's store
// is given all of those entries (as hard links), so a timed set-up only
// reads, whichever backend the router's ring (drawn over fresh ports on
// every boot) makes a key's owner. Set-ups share these stores: a store
// write during one fails the run.
func (b *bench) primeStore() error {
	prime := filepath.Join(b.dir, "prime")
	t, err := startTier(b.tierConfig(prime), b.hc.get)
	if err != nil {
		return err
	}
	b.primeOut, err = b.runWarm(t)
	b.stopTier(t)
	if err != nil {
		return err
	}
	b.store = filepath.Join(b.dir, "store")
	for i := 0; i < b.w.backends; i++ {
		for from := 0; from < b.w.backends; from++ {
			if err := linkTree(filepath.Join(prime, nodeName(from)), filepath.Join(b.store, nodeName(i))); err != nil {
				return err
			}
		}
	}
	return nil
}

// setUp spawns the tier and runs the set-up pass, returning its duration
// from spawn to the end of the pass.
func (b *bench) setUp() (time.Duration, error) {
	start := time.Now()
	t, err := startTier(b.tierConfig(b.store), b.hc.get)
	if err != nil {
		return 0, err
	}
	b.tier = t
	if b.warmOut, err = b.runWarm(t); err != nil {
		return 0, err
	}
	took := time.Since(start)
	if b.store != "" {
		stats, err := b.healthz()
		if err != nil {
			return 0, err
		}
		b.setupWrites += storeWrites(stats)
	}
	return took, nil
}

// storeWrites sums the backends' store write counters.
func storeWrites(stats []service.Stats) int64 {
	var n int64
	for _, s := range stats {
		if s.Store != nil {
			n += s.Store.Writes
		}
	}
	return n
}

// healthz reads every backend's census.
func (b *bench) healthz() ([]service.Stats, error) {
	out := make([]service.Stats, len(b.tier.backends))
	for i, p := range b.tier.backends {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		h, err := b.hc.get(p.url).Health(ctx)
		cancel()
		if err != nil {
			return nil, err
		}
		if h.Stats == nil {
			return nil, fmt.Errorf("%s /healthz has no stats", p.name)
		}
		out[i] = *h.Stats
	}
	return out, nil
}

func (b *bench) run() (*result, error) {
	b.hc = &httpClients{m: map[string]*api.Client{}}
	defer func() {
		if b.tier != nil {
			b.stopTier(b.tier)
		}
	}()
	runStart := time.Now()
	if b.w.routed {
		for _, j := range b.w.warm {
			d, err := j.sp.Digest()
			if err != nil {
				return nil, err
			}
			b.keys = append(b.keys, d)
		}
	}
	if b.w.store {
		if err := b.primeStore(); err != nil {
			return nil, err
		}
	}
	n := setups
	if b.traced {
		n = 1
	}
	var setupS []float64
	setupStart := time.Now()
	for k := 0; k < n; k++ {
		if b.tier != nil {
			b.stopTier(b.tier)
		}
		took, err := b.setUp()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}

	before, err := b.healthz()
	if err != nil {
		return nil, err
	}
	u0, err := b.tier.usage()
	if err != nil {
		return nil, err
	}
	entry := b.hc.get(b.tier.entry())
	steal0 := readCPUStat()
	// cuts[k] is the tier's usage when the k-th window ended (cuts[0]: at
	// the start); the reading is taken as the window's last job completes.
	cuts := []usage{u0}
	var cutErr error
	start := time.Now()
	samples, wall := closedLoop(func(job) *api.Client { return entry }, b.w.next, b.limit,
		func(int) bool { return false },
		// A traced run records client spans on every other job, so the
		// two halves measure the benchmark's own tracing overhead.
		func(i int) bool { return b.traced && i%2 == 0 },
		func(n int) {
			if n%windowJobs == 0 && cutErr == nil {
				u, err := b.tier.usage()
				cuts, cutErr = append(cuts, u), err
			}
		})
	if cutErr != nil {
		return nil, cutErr
	}
	u1, err := b.tier.usage()
	if err != nil {
		return nil, err
	}
	after, err := b.healthz()
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: len(samples), Metrics: map[string]metric{}}
	// Guard: neither a timed set-up nor the timed phase may write the
	// store, whose every write is an fsync on a shared disk. Each write
	// counts as a failure.
	if w := storeWrites(after) - storeWrites(before); w > 0 {
		res.Failed += int(w)
		fmt.Fprintf(os.Stderr, "perfbench: guard violated: %d store writes in the timed phase\n", w)
	}
	for i := range after {
		line := fmt.Sprintf("perfbench: %s: %d submitted, %d cache hits", b.tier.backends[i].name,
			after[i].Submitted-before[i].Submitted, after[i].CacheHits-before[i].CacheHits)
		if after[i].Store != nil && before[i].Store != nil {
			line += fmt.Sprintf(", %d store hits", after[i].Store.Hits-before[i].Store.Hits)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if b.setupWrites > 0 {
		res.Failed += int(b.setupWrites)
		fmt.Fprintf(os.Stderr, "perfbench: guard violated: %d store writes in timed set-ups\n", b.setupWrites)
	}

	// Windows of windowJobs consecutive completions. Rate, latency
	// percentiles and CPU per job are each the median of the per-window
	// values, so a burst of outside load in a few windows moves none of
	// them. The best window is not used: across five seeds it moved about
	// as much as the median on cold-edge and twice as much on
	// routed-store, since quiet spells on a shared host come and go too.
	size, nWin := windowJobs, len(samples)/windowJobs
	if nWin == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d jobs completed; one window of all of them, its p99 has fewer than 10 samples beyond it\n", len(samples))
		size, nWin = len(samples), 1
		cuts = append(cuts[:1], u1)
	}
	var rates, p50s, p99s, cpus, costs []float64
	for k := 0; k < nWin; k++ {
		win := samples[k*size : (k+1)*size]
		from := start
		if k > 0 {
			from = samples[k*size-1].end
		}
		lats := make([]float64, 0, size)
		done := 0
		for i := range win {
			lat := win[i].lat
			if win[i].ok() {
				done++
			} else {
				// A failed job misses every latency limit: it counts as
				// taking the whole timed phase.
				lat = wall
			}
			lats = append(lats, float64(lat)/float64(time.Millisecond))
		}
		if done == 0 {
			continue
		}
		rates = append(rates, float64(done)/win[len(win)-1].end.Sub(from).Seconds())
		p50s = append(p50s, quantile(lats, 0.5))
		p99s = append(p99s, quantile(lats, 0.99))
		cpus = append(cpus, float64(cuts[k+1].cpuTicks-cuts[k].cpuTicks)*1000/clockTicks/float64(done))
	}
	for i := range samples {
		if s := &samples[i]; s.ok() {
			costs = append(costs, s.info.Result.Cost)
		} else {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", s.job.idx, s.err)
		}
	}
	if len(rates) == 0 {
		return nil, errors.New("no job completed")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d windows of %d jobs: jobs/s %.0f, p50 ms %.2f, p99 ms %.2f, cpu ms/job %.2f; host steal %.1f%%\n",
		nWin, size, rates, p50s, p99s, cpus, stealPct(steal0))
	sort.Slice(samples, func(i, j int) bool { return samples[i].job.idx < samples[j].job.idx })

	gateStart := time.Now()
	gateErrs := b.gate(samples)
	gateTook := time.Since(gateStart)
	res.Failed += len(gateErrs)
	for _, e := range gateErrs {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", e)
	}
	res.Correct = res.Failed == 0

	if !b.traced {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		put("jobs_per_s", "1/s", median(rates))
		put("lat_p50_ms", "ms", median(p50s))
		put("lat_p99_ms", "ms", median(p99s))
		put("setup_s", "s", median(setupS))
		put("server_cpu_ms_per_job", "ms", median(cpus))
		put("server_rss_mb", "MB", float64(u1.hwmKB)/1024)
		put("cost_bits_mean", "bits", mean(costs))
		b.stopTier(b.tier)
		b.tier = nil
		errStart := time.Now()
		errPct, err := b.estErr(samples)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: phases: prime %.1fs, set-up %.1fs (each %.3f s), timed %.1fs, gate %.1fs, fxsim %.1fs\n",
			setupStart.Sub(runStart).Seconds(), start.Sub(setupStart).Seconds(), setupS, wall.Seconds(),
			gateTook.Seconds(), time.Since(errStart).Seconds())
		put("est_err_pct_max", "%", errPct)
		return res, nil
	}
	if err := b.layers(res, samples, before, after); err != nil {
		return nil, err
	}
	return res, nil
}

// sampled draws up to n seeded samples with distinct answer identities
// from the first sampleFrom timed jobs; the draw depends only on the seed.
func (b *bench) sampled(samples []sample, n int, salt int64) []*sample {
	var pool []*sample
	for i := range samples {
		if s := &samples[i]; s.job.idx < b.w.sampleFrom && s.ok() {
			pool = append(pool, s)
		}
	}
	rng := rand.New(rand.NewSource(b.seed*7919 + salt))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	seen := map[string]bool{}
	var out []*sample
	for _, s := range pool {
		if k := b.w.key(s.job); !seen[k] && len(out) < n {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// gate is the correctness check: a seeded sample of answers replayed
// in-process must match what the tier served bit for bit, and on a
// store-backed workload every answer of the set-up pass and the timed
// phase must equal the answer computed for its key while priming.
func (b *bench) gate(samples []sample) []error {
	var errs []error
	r := newReplayer(b.w.npsd)
	for _, s := range b.sampled(samples, gateSample, 1) {
		if err := checkServed(r, s); err != nil {
			errs = append(errs, err)
		}
	}
	if b.store != "" {
		want := map[int]*service.JobResult{}
		for i := range b.primeOut {
			want[b.primeOut[i].job.hot] = b.primeOut[i].info.Result
		}
		for _, set := range [][]sample{b.warmOut, samples} {
			for i := range set {
				s := &set[i]
				if !s.ok() {
					continue
				}
				if err := sameResult(want[s.job.hot], s.info.Result); err != nil {
					errs = append(errs, fmt.Errorf("job %d (hot %d): %w", s.job.idx, s.job.hot, err))
				}
			}
		}
	}
	return errs
}

// sameResult reports whether two served answers are bit-identical.
func sameResult(a, b *service.JobResult) error {
	if a == nil || b == nil {
		return errors.New("missing answer")
	}
	if math.Float64bits(a.Power) != math.Float64bits(b.Power) || math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || len(a.Fracs) != len(b.Fracs) {
		return fmt.Errorf("answer changed: power %v→%v cost %v→%v", a.Power, b.Power, a.Cost, b.Cost)
	}
	for k, v := range a.Fracs {
		if b.Fracs[k] != v {
			return fmt.Errorf("source %s width changed %d→%d", k, v, b.Fracs[k])
		}
	}
	return nil
}

// estErr is est_err_pct_max: the largest |Ed| between a served estimate
// and an fxsim simulation of the served assignment, over a seeded sample
// of answers.
func (b *bench) estErr(samples []sample) (float64, error) {
	pick := b.sampled(samples, errSample, 2)
	if len(pick) == 0 {
		return 0, errors.New("no answer to check against simulation")
	}
	worst := 0.0
	for _, s := range pick {
		e, err := estErrPct(s)
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, e)
	}
	return worst, nil
}

// ownerIndex maps a served job ID ("b1-j000042") to its backend's index.
func ownerIndex(id string) int {
	node, _, _ := strings.Cut(id, "-")
	i, _ := strconv.Atoi(strings.TrimPrefix(node, "b"))
	return i
}

// routerHop measures router.hop_us on a routed tier: the same cached
// answers submitted straight to their owner and through wloptr,
// alternating passes. It returns the hop and the router's retry and spill
// counters.
func (b *bench) routerHop(samples []sample) (float64, float64, float64, error) {
	// The most recent answers are still in the backends' result caches.
	byEnd := make([]*sample, 0, len(samples))
	for i := range samples {
		if samples[i].ok() {
			byEnd = append(byEnd, &samples[i])
		}
	}
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end.After(byEnd[j].end) })
	var list []job
	owners := map[int]string{}
	seen := map[string]bool{}
	for _, s := range byEnd {
		if k := b.w.key(s.job); !seen[k] && len(list) < hopList {
			seen[k] = true
			j := s.job
			j.idx = len(list)
			owners[j.idx] = b.tier.backends[ownerIndex(s.info.ID)].url
			list = append(list, j)
		}
	}
	var rounds []job
	for r := 0; r < hopRounds; r++ {
		for _, j := range list {
			j.idx = len(rounds)
			owners[j.idx] = owners[j.idx%len(list)]
			rounds = append(rounds, j)
		}
	}
	router := b.hc.get(b.tier.router.url)
	var direct, routed []float64
	for pass := 0; pass < 4; pass++ {
		via := func(j job) *api.Client { return b.hc.get(owners[j.idx]) }
		if pass%2 == 1 {
			via = func(job) *api.Client { return router }
		}
		for _, s := range runList(via, rounds) {
			if !s.ok() {
				return 0, 0, 0, fmt.Errorf("router-hop pass: %v", s.err)
			}
			if pass%2 == 1 {
				routed = append(routed, us(s.lat))
			} else {
				direct = append(direct, us(s.lat))
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	text, err := router.MetricsText(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	return median(routed) - median(direct), counter(text, "wloptr_proxy_retries_total"), counter(text, "wloptr_spills_total"), nil
}

// counter sums every series of a Prometheus counter in a text exposition.
func counter(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok && (strings.HasPrefix(rest, "{") || strings.HasPrefix(rest, " ")) {
			var v float64
			if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// layers is the traced run: router hop and tier counters, then the
// in-process replays, the layer table and the span file.
func (b *bench) layers(res *result, samples []sample, before, after []service.Stats) error {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	var watched, evals, tracedLat, plainLat []float64
	digests := map[string]bool{}
	hotOwner := map[int]int{}
	for _, set := range [][]sample{b.warmOut, samples} {
		for i := range set {
			s := &set[i]
			if !s.ok() {
				continue
			}
			digests[s.info.Digest] = true
			if s.job.hot >= 0 {
				hotOwner[s.job.hot] = ownerIndex(s.info.ID)
			}
		}
	}
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			continue
		}
		if s.events > 0 {
			watched = append(watched, float64(s.events))
		}
		evals = append(evals, float64(s.info.Result.Evaluations))
		if s.spans != nil {
			tracedLat = append(tracedLat, us(s.lat))
		} else {
			plainLat = append(plainLat, us(s.lat))
		}
	}
	var planBuilds, hits, submitted, storeHits float64
	for i := range after {
		planBuilds += float64(after[i].PlanBuilds)
		hits += float64(after[i].CacheHits - before[i].CacheHits)
		submitted += float64(after[i].Submitted - before[i].Submitted)
		if after[i].Store != nil && before[i].Store != nil {
			storeHits += float64(after[i].Store.Hits - before[i].Store.Hits)
		}
	}
	// Layers the workload does not run read NaN here and are reported as 0.
	hop, retries, spills := math.NaN(), 0.0, 0.0
	if b.w.routed {
		var err error
		if hop, retries, spills, err = b.routerHop(samples); err != nil {
			return err
		}
	}
	b.stopTier(b.tier)
	b.tier = nil

	// In-process replays of the set-up pass and the first timed jobs.
	var list []job
	for i := range samples {
		if len(list) < replayJobs && samples[i].ok() && samples[i].job.idx == len(list) {
			list = append(list, samples[i].job)
		}
	}
	owner := func(j job) int {
		if j.hot >= 0 {
			return hotOwner[j.hot]
		}
		return 0
	}
	svcWarm, svcList, err := serviceReplay(b.w, b.dir, b.w.warm, list, owner)
	if err != nil {
		return err
	}
	r := newReplayer(b.w.npsd)
	if b.w.store {
		if r.st, err = store.Open(filepath.Join(b.dir, "layer-store")); err != nil {
			return err
		}
	}
	var spans []span
	replay := func(jobs []job) ([]layerTimes, error) {
		out := make([]layerTimes, len(jobs))
		for i, j := range jobs {
			rec := &recorder{on: true, run: "replay", trace: j.idx}
			rec.parent = rec.begin("replay.job", -1, time.Now())
			lt, err := r.run(j, rec)
			if err != nil {
				return nil, err
			}
			rec.end(rec.parent)
			out[i] = lt
			spans = append(spans, rec.spans...)
		}
		return out, nil
	}
	ltWarm, err := replay(b.w.warm)
	if err != nil {
		return err
	}
	ltList, err := replay(list)
	if err != nil {
		return err
	}
	for i := range samples {
		spans = append(spans, samples[i].spans...)
	}

	var decode, digest, build, plan, probe, search, putT, getT []float64
	for _, lt := range append(append([]layerTimes(nil), ltWarm...), ltList...) {
		decode = append(decode, us(lt.decode))
		digest = append(digest, us(lt.digest))
		if lt.build > 0 {
			build = append(build, us(lt.build))
			plan = append(plan, us(lt.plan))
		}
		if lt.ran {
			probe = append(probe, us(lt.probe))
			search = append(search, us(lt.search))
			if r.st != nil {
				putT = append(putT, us(lt.put))
				getT = append(getT, us(lt.get))
			}
		}
	}
	// Queue wait and the run gap come from jobs that ran: the timed list,
	// or the set-up pass when every timed job was a cache hit.
	var queue, gap, wait []float64
	builtList := 0
	collect := func(svc []svcSample, lts []layerTimes) {
		for i, s := range svc {
			if !s.ran {
				continue
			}
			lt := lts[i]
			queue = append(queue, us(s.queued))
			gap = append(gap, us(s.running-lt.build-lt.plan-lt.probe-lt.search))
		}
	}
	collect(svcList, ltList)
	if len(queue) == 0 {
		collect(svcWarm, ltWarm)
	}
	listHits := 0
	var e2eList []float64
	for i, s := range svcList {
		wait = append(wait, us(s.wait))
		if s.hit {
			listHits++
		}
		if ltList[i].build > 0 {
			builtList++
		}
		e2eList = append(e2eList, us(samples[i].lat))
	}

	e2e := median(e2eList)
	directE2E := e2e
	if b.w.routed {
		directE2E -= hop
	}
	submitWait := median(wait)
	overhead := directE2E - submitWait
	layerMed := map[string]float64{
		"router.hop_us":          hop,
		"api.overhead_us":        overhead,
		"api.decode_us":          median(decode),
		"spec.digest_us":         median(digest),
		"graph.build_us":         median(build),
		"plan.build_us":          median(plan),
		"budget.probe_us":        median(probe),
		"search_us":              median(search),
		"queue.wait_us":          median(queue),
		"service.run_gap_us":     median(gap),
		"service.submit_wait_us": submitWait,
		"store.put_us":           median(putT),
		"store.probe_us":         median(getT),
	}
	// The blocking path of the median timed job: a cache hit crosses the
	// edge, the digest and (when most hits come from disk) the store; a
	// computed job also waits in the queue and runs the engine.
	var path []string
	if b.w.routed {
		path = append(path, "router.hop_us")
	}
	path = append(path, "api.overhead_us", "spec.digest_us")
	if 2*listHits > len(svcList) {
		if hits > 0 && storeHits*2 > hits {
			path = append(path, "store.probe_us")
		}
	} else {
		path = append(path, "queue.wait_us")
		if 2*builtList > len(list) {
			path = append(path, "graph.build_us", "plan.build_us")
		}
		path = append(path, "budget.probe_us", "search_us", "service.run_gap_us")
	}
	onPath := map[string]bool{}
	unaccounted := e2e
	for _, p := range path {
		onPath[p] = true
		unaccounted -= layerMed[p]
	}
	order := []string{"router.hop_us", "api.overhead_us", "api.decode_us", "spec.digest_us", "queue.wait_us",
		"graph.build_us", "plan.build_us", "budget.probe_us", "search_us", "service.run_gap_us",
		"store.probe_us", "store.put_us", "service.submit_wait_us"}
	counts := map[string]int{"api.decode_us": len(decode), "spec.digest_us": len(digest), "graph.build_us": len(build),
		"plan.build_us": len(plan), "budget.probe_us": len(probe), "search_us": len(search), "queue.wait_us": len(queue),
		"service.run_gap_us": len(gap), "service.submit_wait_us": len(wait), "store.put_us": len(putT),
		"store.probe_us": len(getT), "api.overhead_us": len(e2eList)}
	if b.w.routed {
		counts["router.hop_us"] = hopList * hopRounds * 2
	}
	var rows []layerRow
	for _, name := range order {
		v := layerMed[name]
		if math.IsNaN(v) {
			v = 0 // the workload never runs this layer
		}
		layerMed[name] = v
		rows = append(rows, layerRow{name: name, value: v, n: counts[name], blocking: onPath[name]})
	}
	printLayers(os.Stderr, b.w.name, e2e, rows, unaccounted)
	fmt.Fprintf(os.Stderr, "  benchmark tracing overhead: traced jobs p50 %.1f us (n=%d), untraced p50 %.1f us (n=%d), difference %.1f us\n",
		median(tracedLat), len(tracedLat), median(plainLat), len(plainLat), median(tracedLat)-median(plainLat))

	for name, v := range layerMed {
		put(name, "us", v)
	}
	put("unaccounted_us", "us", unaccounted)
	put("api.events_per_job", "count", meanOrZero(watched))
	put("wlopt.evaluations_per_job", "count", meanOrZero(evals))
	put("core.plan_builds_per_digest", "ratio", planBuilds/float64(len(digests)))
	put("service.cache_hit_ratio", "ratio", ratio(hits, submitted))
	put("router.retries", "count", retries)
	put("router.spills", "count", spills)

	path0 := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.seed))
	if err := writeSpans(path0, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "  spans: %d written to %s\n", len(spans), path0)
	return nil
}

func meanOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readCPUStat returns the machine-wide CPU tick counters of /proc/stat
// (user nice system idle iowait irq softirq steal ...); nil if unreadable.
func readCPUStat() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		var v float64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealPct is the share of CPU time the hypervisor took from this machine
// since before, a diagnostic for runs slowed by neighbours.
func stealPct(before []float64) float64 {
	after := readCPUStat()
	if len(before) < 8 || len(after) < 8 {
		return math.NaN()
	}
	var total float64
	for i := range after {
		total += after[i] - before[i]
	}
	return 100 * (after[7] - before[7]) / total
}
