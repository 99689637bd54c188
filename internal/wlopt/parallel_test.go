package wlopt

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sfg"
	"repro/internal/systems"
)

func testGraphs(t *testing.T) map[string]func() *sfg.Graph {
	t.Helper()
	return map[string]func() *sfg.Graph{
		"two-stage": func() *sfg.Graph { return buildTwoStage(t) },
		"dwt": func() *sfg.Graph {
			g, err := systems.NewDWT().Graph(16)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Fracs, b.Fracs) {
		t.Fatalf("%s: assignments diverge: %v vs %v", label, a.Fracs, b.Fracs)
	}
	if a.Power != b.Power {
		t.Fatalf("%s: powers diverge: %g vs %g", label, a.Power, b.Power)
	}
	if a.Cost != b.Cost || a.UniformFrac != b.UniformFrac || a.UniformCost != b.UniformCost {
		t.Fatalf("%s: costs diverge: %+v vs %+v", label, a, b)
	}
	if a.Evaluations != b.Evaluations {
		t.Fatalf("%s: evaluation counts diverge: %d vs %d", label, a.Evaluations, b.Evaluations)
	}
}

// TestOptimizeWorkersEquivalence: the parallel greedy descent must return
// exactly the serial result — same widths, same power, same oracle-call
// count — for any worker pool width.
func TestOptimizeWorkersEquivalence(t *testing.T) {
	for name, build := range testGraphs(t) {
		opt := Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24}
		if name == "dwt" {
			opt.Budget = 1e-7
			opt.MaxFrac = 20
		}
		serialOpt := opt
		serialOpt.Workers = 1
		serial, err := Optimize(build(), serialOpt)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, workers := range []int{2, 8} {
			parOpt := opt
			parOpt.Workers = workers
			par, err := Optimize(build(), parOpt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			sameResult(t, name, par, serial)
		}
	}
}

// TestOptimizeAscentWorkersEquivalence: same contract for the dual greedy.
func TestOptimizeAscentWorkersEquivalence(t *testing.T) {
	for name, build := range testGraphs(t) {
		opt := Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24}
		if name == "dwt" {
			opt.Budget = 1e-7
			opt.MaxFrac = 20
		}
		serialOpt := opt
		serialOpt.Workers = 1
		serial, err := OptimizeAscent(build(), serialOpt)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parOpt := opt
		parOpt.Workers = 8
		par, err := OptimizeAscent(build(), parOpt)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		sameResult(t, name, par, serial)
	}
}

// TestOptimizeExplicitEngine: passing a shared engine as the evaluator
// matches the default path and leaves the engine reusable.
func TestOptimizeExplicitEngine(t *testing.T) {
	eng := core.NewEngine(256, 4)
	g := buildTwoStage(t)
	res, err := Optimize(g, Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24, Evaluator: eng})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Optimize(buildTwoStage(t), Options{Budget: 1e-8, MinFrac: 4, MaxFrac: 24})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "explicit-engine", res, def)
	// The engine still answers for the graph once the result's widths are
	// written into it.
	applyFracs(t, g, res.Fracs)
	check, err := eng.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if check.Power != res.Power {
		t.Fatalf("engine disagrees with result on final graph: %g vs %g", check.Power, res.Power)
	}
}
