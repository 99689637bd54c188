// Package gen makes the benchmark's inputs: seeded, spec-exportable
// signal-flow graphs and the job lists built from them. Every function is a
// pure function of its seed and index, so the same seed always yields the
// same specs (and so the same content digests), while different seeds draw
// from disjoint parameter streams.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/spec"
)

// Strategies are the search strategies a budget sweep runs per width.
var Strategies = []string{"descent", "ascent", "hybrid"}

// SweepWidths are the budget widths a budget sweep runs per graph. They
// start at 8 bits: below that the PQN model's error against simulation on
// this family spreads from 4% to 18% with the draw, and the largest-error
// metric would measure which graphs were drawn rather than the program.
var SweepWidths = []int{8, 9, 10, 11, 12, 13, 14, 15}

// SweepSources is the noise-source count of every sweep graph.
const SweepSources = 16

// mix is splitmix64: a bijective 64-bit mixer, so distinct inputs never
// collide.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps (seed, stream, i) to a float in [0, 1) with 53 random bits.
func unit(seed int64, stream, i uint64) float64 {
	h := mix(mix(mix(uint64(seed))^stream) ^ i)
	return float64(h>>11) / (1 << 53)
}

// Pick returns the i-th of the seed's uniform draws from [0, n).
func Pick(seed int64, stream uint64, i, n int) int {
	return int(unit(seed, stream, uint64(i)) * float64(n))
}

func ptrF(v float64) *float64 { return &v }
func ptrI(v int) *int         { return &v }

// Comb returns the i-th system of the seed's comb family: the small
// four-source comb with a 255-tap smoothing FIR, whose gain is drawn from
// the seed's own stream. Stream separates independent families of the same
// seed (the cold-edge jobs and the routed-store hot set). Every (seed,
// stream, i) gives a distinct gain, so a distinct digest. The spec carries
// its options and POSTs as a raw spec document.
func Comb(seed int64, stream uint64, i int) *spec.Spec {
	gain := 0.25 + 0.5*unit(seed, stream, uint64(i))
	return &spec.Spec{
		Version: spec.Version,
		Name:    fmt.Sprintf("comb-%d-%d-%d", seed, stream, i),
		Nodes: []spec.NodeSpec{
			{Name: "in", Kind: "input", Noise: &spec.NoiseSpec{Name: "in.q", Frac: 12}},
			{Name: "g", Kind: "gain", Gain: ptrF(gain), Noise: &spec.NoiseSpec{Name: "g.q", Frac: 12}},
			{Name: "z1", Kind: "delay", Delay: ptrI(1)},
			{Name: "sum", Kind: "adder"},
			{Name: "smooth", Kind: "filter", Filter: &spec.FilterSpec{
				FIR: &spec.FIRDesign{Band: "lowpass", Taps: 255, F1: 0.2, Window: "hamming"},
			}, Noise: &spec.NoiseSpec{Name: "smooth.q", Frac: 12}},
			{Name: "fine", Kind: "gain", Gain: ptrF(0.3), Noise: &spec.NoiseSpec{Name: "fine.q", Frac: 12}},
			{Name: "out", Kind: "output"},
		},
		Edges: [][2]string{
			{"in", "g"}, {"in", "z1"}, {"g", "sum"}, {"z1", "sum"},
			{"sum", "smooth"}, {"smooth", "fine"}, {"fine", "out"},
		},
		Options: &spec.Options{Strategy: "descent", BudgetWidth: 10, MinFrac: 4, MaxFrac: 16, Seed: 1},
	}
}

// graph accumulates a spec while the sweep generator walks its stages.
type graph struct {
	sp      *spec.Spec
	rng     *rand.Rand
	sources int
}

// add appends a node fed by from (when non-empty), with a noise source at
// its output when noisy, and returns its name.
func (b *graph) add(n spec.NodeSpec, noisy bool, from ...string) string {
	n.Name = fmt.Sprintf("n%02d.%s", len(b.sp.Nodes), n.Kind)
	if noisy {
		n.Noise = &spec.NoiseSpec{Name: n.Name + ".q", Frac: 12}
		b.sources++
	}
	b.sp.Nodes = append(b.sp.Nodes, n)
	for _, f := range from {
		b.sp.Edges = append(b.sp.Edges, [2]string{f, n.Name})
	}
	return n.Name
}

// near draws a parameter within 5% of v.
func (b *graph) near(v float64) float64 { return v * (0.95 + 0.1*b.rng.Float64()) }

// Sweep returns the k-th graph of the seed's budget-sweep family: a
// feed-forward cascade of comb, FIR, gain and down/up stages carrying
// exactly SweepSources noise sources. The stage order and delays are
// fixed; every gain and the FIR cutoff is drawn within 5% of its nominal
// value from (seed, k). So each graph has its own digest, yet all cost
// about the same to plan and search, and their estimate error against
// simulation stays in one narrow range (10-15% |Ed| on optimized
// assignments). Freely drawn cascades spread that error from 1% to over
// 40%: a stage close to the identity on its input (a lowpass FIR behind
// another lowpass, a gain near 1) re-quantizes an already-quantized signal
// almost without error where the PQN model predicts a full q²/12, and a
// decimator behind an interpolator samples one phase of cyclostationary
// noise where the model sees its average. Options are left unset: the
// sweep sets them per job.
func Sweep(seed int64, k int) *spec.Spec {
	b := &graph{
		sp:  &spec.Spec{Version: spec.Version, Name: fmt.Sprintf("sweep-%d-%d", seed, k)},
		rng: rand.New(rand.NewSource(int64(mix(mix(uint64(seed)) ^ uint64(k))))),
	}
	x := b.add(spec.NodeSpec{Kind: "input"}, true)
	x = b.comb(x, 2)
	x = b.add(spec.NodeSpec{Kind: "filter", Filter: &spec.FilterSpec{
		FIR: &spec.FIRDesign{Band: "lowpass", Taps: 47, F1: b.near(0.3), Window: "hamming"},
	}}, true, x)
	x = b.add(spec.NodeSpec{Kind: "gain", Gain: ptrF(b.near(1.45))}, true, x)
	x = b.downUp(x)
	x = b.comb(x, 3)
	x = b.add(spec.NodeSpec{Kind: "gain", Gain: ptrF(b.near(0.65))}, true, x)
	x = b.comb(x, 4)
	x = b.add(spec.NodeSpec{Kind: "gain", Gain: ptrF(b.near(1.45))}, true, x)
	x = b.comb(x, 5)
	b.add(spec.NodeSpec{Kind: "output"}, false, x)
	if b.sources != SweepSources {
		panic(fmt.Sprintf("gen: sweep graph has %d sources, want %d", b.sources, SweepSources))
	}
	return b.sp
}

// comb adds a direct branch and a branch delayed by d and scaled, summed.
func (b *graph) comb(x string, d int) string {
	direct := b.add(spec.NodeSpec{Kind: "gain", Gain: ptrF(b.near(0.7))}, true, x)
	z := b.add(spec.NodeSpec{Kind: "delay", Delay: ptrI(d)}, false, x)
	fb := b.add(spec.NodeSpec{Kind: "gain", Gain: ptrF(b.near(0.28))}, true, z)
	return b.add(spec.NodeSpec{Kind: "adder"}, false, direct, fb)
}

// downUp decimates x by 2 behind an anti-aliasing FIR, scales it and
// interpolates it back. The interpolating FIR comes before the next
// quantizer, which would otherwise see exact zeros on every other sample.
func (b *graph) downUp(x string) string {
	lowpass := func() *spec.FilterSpec {
		return &spec.FilterSpec{FIR: &spec.FIRDesign{Band: "lowpass", Taps: 31, F1: 0.2, Window: "hamming"}}
	}
	aa := b.add(spec.NodeSpec{Kind: "filter", Filter: lowpass()}, true, x)
	d := b.add(spec.NodeSpec{Kind: "down", Factor: ptrI(2)}, false, aa)
	s := b.add(spec.NodeSpec{Kind: "gain", Gain: ptrF(b.near(1.6))}, true, d)
	u := b.add(spec.NodeSpec{Kind: "up", Factor: ptrI(2)}, false, s)
	return b.add(spec.NodeSpec{Kind: "filter", Filter: lowpass()}, true, u)
}

// SweepJob returns one job of a budget sweep: graph sp at the given budget
// width and strategy. Pass numbers the sweep's repetitions: it becomes the
// options seed, which the deterministic strategies ignore but the result
// cache keys on, so every pass is a fresh search on a warm plan instead of
// a cache hit.
func SweepJob(sp *spec.Spec, width int, strategy string, pass int) *spec.Spec {
	cp := *sp
	cp.Options = &spec.Options{
		Strategy: strategy, BudgetWidth: width, MinFrac: 4, MaxFrac: 16, Seed: int64(pass) + 1,
	}
	return &cp
}

// SweepOrder returns the i-th job of the digest-major sweep over graphs:
// all widths and strategies of one graph, then the next graph, then the
// next pass.
func SweepOrder(graphs []*spec.Spec, i int) *spec.Spec {
	perGraph := len(SweepWidths) * len(Strategies)
	perPass := perGraph * len(graphs)
	pass, r := i/perPass, i%perPass
	g, r := r/perGraph, r%perGraph
	return SweepJob(graphs[g], SweepWidths[r/len(Strategies)], Strategies[r%len(Strategies)], pass)
}
