package wlopt

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestStrategiesMovePathEquivalence: every registered strategy run on the
// default engine — scalar σ²-table move scores, transfer-cached final
// evaluation — lands where the same run on the full-propagation reference
// engine lands: identical assignment, cost, uniform baseline and
// Result.Evaluations, and a power within the 1e-12 relative contract (the
// cached tier reassociates the variance sum, so cross-tier powers are
// close, not bitwise equal).
func TestStrategiesMovePathEquivalence(t *testing.T) {
	for _, name := range Strategies() {
		for _, graph := range []string{"two-stage", "dwt"} {
			gm, opt := goldenGraph(t, graph)
			opt.Seed = 5
			viaMoves, err := RunStrategy(gm, name, opt)
			if err != nil {
				t.Fatalf("%s on %s via moves: %v", name, graph, err)
			}
			gr, opt2 := goldenGraph(t, graph)
			opt2.Seed = 5
			ref := core.NewEngine(256, 1)
			ref.SetFullPropagation(true)
			opt2.Evaluator = ref
			viaRef, err := RunStrategy(gr, name, opt2)
			if err != nil {
				t.Fatalf("%s on %s via reference: %v", name, graph, err)
			}
			if !reflect.DeepEqual(viaMoves.Fracs, viaRef.Fracs) {
				t.Errorf("%s on %s: fracs diverge: moves %v, reference %v", name, graph, viaMoves.Fracs, viaRef.Fracs)
			}
			if viaMoves.Cost != viaRef.Cost {
				t.Errorf("%s on %s: cost diverges: %g vs %g", name, graph, viaMoves.Cost, viaRef.Cost)
			}
			if rel := math.Abs(viaMoves.Power-viaRef.Power) / math.Max(viaMoves.Power, viaRef.Power); rel > 1e-12 {
				t.Errorf("%s on %s: power diverges beyond 1e-12: %.17g vs %.17g",
					name, graph, viaMoves.Power, viaRef.Power)
			}
			if viaMoves.Evaluations != viaRef.Evaluations {
				t.Errorf("%s on %s: oracle-call accounting diverges: %d via moves, %d via reference",
					name, graph, viaMoves.Evaluations, viaRef.Evaluations)
			}
			if viaMoves.UniformFrac != viaRef.UniformFrac || viaMoves.UniformCost != viaRef.UniformCost {
				t.Errorf("%s on %s: uniform baseline diverges", name, graph)
			}
		}
	}
}
