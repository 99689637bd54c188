package wlopt

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/filter"
	"repro/internal/fxsim"
	"repro/internal/qnoise"
	"repro/internal/sfg"
	"repro/internal/systems"
)

// buildTwoStage builds in(q) -> lp(q) -> hp(q) -> out where the lp source
// is heavily attenuated downstream, so the optimizer should strip its bits
// first.
func buildTwoStage(t *testing.T) *sfg.Graph {
	t.Helper()
	lp, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Lowpass, Taps: 31, F1: 0.1, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := filter.DesignFIR(filter.FIRSpec{Band: filter.Highpass, Taps: 31, F1: 0.3, Window: dsp.Hamming})
	if err != nil {
		t.Fatal(err)
	}
	g := sfg.New()
	in := g.Input("in")
	f1 := g.Filter("lp", lp)
	f2 := g.Filter("hp", hp)
	out := g.Output("out")
	g.Chain(in, f1, f2, out)
	g.SetNoise(in, qnoise.Source{Mode: systems.Mode, Frac: 16})
	g.SetNoise(f1, qnoise.Source{Mode: systems.Mode, Frac: 16})
	g.SetNoise(f2, qnoise.Source{Mode: systems.Mode, Frac: 16})
	return g
}

// applyFracs writes a result's widths into g's noise sources by name —
// how a caller puts an optimized assignment into a graph, since the
// search itself never writes it.
func applyFracs(t *testing.T, g *sfg.Graph, fracs map[string]int) {
	t.Helper()
	for _, id := range g.NoiseSources() {
		n := g.Node(id)
		f, ok := fracs[n.Noise.Name]
		if !ok {
			t.Fatalf("result has no width for source %s", n.Noise.Name)
		}
		n.Noise.Frac = f
	}
}

func TestOptimizeMeetsBudget(t *testing.T) {
	g := buildTwoStage(t)
	budget := 1e-8
	res, err := Optimize(g, Options{Budget: budget, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Power > budget {
		t.Fatalf("optimized power %g exceeds budget %g", res.Power, budget)
	}
	if len(res.Fracs) != 3 {
		t.Fatalf("fracs %v", res.Fracs)
	}
	// The assignment, written into the graph, must be verified by the
	// oracle.
	applyFracs(t, g, res.Fracs)
	check, err := core.NewPSDEvaluator(256).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check.Power-res.Power) > 1e-15 {
		t.Fatal("graph state does not match reported result")
	}
}

func TestOptimizeExploitsAttenuatedSources(t *testing.T) {
	// The in source is crushed by the (nearly disjoint) low-pass/high-pass
	// cascade, so greedy should strip it to far fewer bits than the
	// sources closer to the output; the hp source hits the output
	// directly and must keep at least as many bits as lp.
	g := buildTwoStage(t)
	res, err := Optimize(g, Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fracs["hp"] < res.Fracs["lp"] {
		t.Fatalf("expected hp >= lp bits, got %v", res.Fracs)
	}
	if res.Fracs["in"]+4 > res.Fracs["hp"] {
		t.Fatalf("expected in to be stripped well below hp, got %v", res.Fracs)
	}
}

func TestOptimizeBeatsUniform(t *testing.T) {
	g := buildTwoStage(t)
	res, err := Optimize(g, Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > res.UniformCost {
		t.Fatalf("greedy cost %g worse than uniform %g", res.Cost, res.UniformCost)
	}
	if res.Evaluations < 10 {
		t.Fatalf("implausibly few oracle calls: %d", res.Evaluations)
	}
}

func TestOptimizeResultValidatedBySimulation(t *testing.T) {
	g := buildTwoStage(t)
	budget := 4e-8
	res, err := Optimize(g, Options{Budget: budget, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	applyFracs(t, g, res.Fracs)
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 300000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The simulated power must honor the budget within Monte-Carlo and
	// model tolerance (the paper's sub-one-bit margin).
	if sim.Power > 2*budget {
		t.Fatalf("simulated power %g blows budget %g (assignment %v)", sim.Power, budget, res.Fracs)
	}
}

func TestOptimizeErrors(t *testing.T) {
	g := buildTwoStage(t)
	if _, err := Optimize(g, Options{Budget: 0, MinFrac: 4, MaxFrac: 20}); err == nil {
		t.Fatal("zero budget should fail")
	}
	if _, err := Optimize(g, Options{Budget: 1, MinFrac: 0, MaxFrac: 20}); err == nil {
		t.Fatal("bad min frac should fail")
	}
	if _, err := Optimize(g, Options{Budget: 1e-30, MinFrac: 4, MaxFrac: 8}); err == nil {
		t.Fatal("unreachable budget should fail")
	}
	empty := sfg.New()
	in := empty.Input("in")
	out := empty.Output("out")
	empty.Connect(in, out)
	if _, err := Optimize(empty, Options{Budget: 1, MinFrac: 4, MaxFrac: 8}); err == nil {
		t.Fatal("no sources should fail")
	}
}

func TestOptimizeWeightedCost(t *testing.T) {
	g := buildTwoStage(t)
	// Make bits at the input stage very expensive: the optimizer should
	// shave them harder than with unit weights.
	res, err := Optimize(g, Options{
		Budget:  1e-8,
		MinFrac: 4, MaxFrac: 24,
		CostPerBit: map[string]float64{"in": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	gUnit := buildTwoStage(t)
	unit, err := Optimize(gUnit, Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fracs["in"] > unit.Fracs["in"] {
		t.Fatalf("weighted run should not give the expensive source more bits: %d vs %d",
			res.Fracs["in"], unit.Fracs["in"])
	}
}

func TestOptimizeDWTSystem(t *testing.T) {
	// End-to-end on the paper's Fig. 3 system.
	sys := systems.NewDWT()
	g, err := sys.Graph(16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(g, Options{Budget: 1e-7, MinFrac: 4, MaxFrac: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Power > 1e-7 {
		t.Fatalf("DWT optimized power %g over budget", res.Power)
	}
	if len(res.Fracs) != 9 {
		t.Fatalf("expected 9 sources, got %d", len(res.Fracs))
	}
}

func TestOptimizeAscentMeetsBudget(t *testing.T) {
	g := buildTwoStage(t)
	budget := 1e-8
	res, err := OptimizeAscent(g, Options{Budget: budget, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Power > budget {
		t.Fatalf("ascent power %g exceeds budget %g", res.Power, budget)
	}
	applyFracs(t, g, res.Fracs)
	check, err := core.NewPSDEvaluator(256).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check.Power-res.Power) > 1e-15 {
		t.Fatal("graph state does not match reported result")
	}
}

func TestAscentAndDescentComparable(t *testing.T) {
	// Both greedy directions must meet the budget; their costs should be
	// within a couple of bits of each other on this small problem.
	budget := 1e-8
	gd := buildTwoStage(t)
	desc, err := Optimize(gd, Options{Budget: budget, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	ga := buildTwoStage(t)
	asc, err := OptimizeAscent(ga, Options{Budget: budget, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(desc.Cost-asc.Cost) > 4 {
		t.Fatalf("descent cost %g vs ascent cost %g diverge", desc.Cost, asc.Cost)
	}
}

func TestOptimizeAscentErrors(t *testing.T) {
	g := buildTwoStage(t)
	if _, err := OptimizeAscent(g, Options{Budget: 0, MinFrac: 4, MaxFrac: 20}); err == nil {
		t.Fatal("zero budget should fail")
	}
	if _, err := OptimizeAscent(g, Options{Budget: 1e-30, MinFrac: 4, MaxFrac: 8}); err == nil {
		t.Fatal("unreachable budget should fail")
	}
}
