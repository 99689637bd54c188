package wlopt

import (
	"sort"

	"repro/internal/core"
	"repro/internal/sfg"
)

// descentStrategy is the greedy max-minus-one descent: starting from
// MaxFrac everywhere (which must meet the budget), it repeatedly removes
// one bit from the source whose removal keeps the budget satisfied while
// freeing the most cost, until no single-bit removal is feasible.
type descentStrategy struct{}

// Name implements Strategy.
func (descentStrategy) Name() string { return "descent" }

// Run implements Strategy. All candidate removals of one step are scored
// concurrently (see Options.Workers).
func (descentStrategy) Run(o *Oracle, opt Options) (*Result, error) {
	res := &Result{Fracs: map[string]int{}}
	if err := o.requireFeasible(opt); err != nil {
		return nil, err
	}

	// Uniform baseline: smallest uniform width meeting the budget.
	ufrac, err := UniformBaseline(o, opt)
	if err != nil {
		return nil, err
	}
	o.fillUniform(res, ufrac)

	// Greedy descent from MaxFrac.
	cur, err := trim(o, opt, core.UniformAssignment(o.Sources(), opt.MaxFrac))
	if err != nil {
		return nil, err
	}

	final, err := o.Power(cur)
	if err != nil {
		return nil, err
	}
	res.Power = final
	res.Evaluations = o.Evaluations()
	o.fillAssignment(res, cur)
	return res, nil
}

// trim runs the greedy bit-removal loop from cur: every step scores all
// feasible single-bit removals as one oracle round of Moves against the
// incumbent — the engine's scalar tier — and takes the one freeing the
// most cost, until no removal stays under the budget (or the run is
// cancelled, in which case the incumbent is returned as is). It is the
// whole of the descent strategy and the second phase of the hybrid
// strategy.
//
// Feasibility decisions compare scalar move scores against the budget;
// the final reported power is the engine's canonical evaluation of the
// assignment, which agrees with those scores within 1e-12 relative. A
// budget placed within that sliver of an achievable power can therefore
// report marginally over budget — callers needing a hard guarantee should
// pad the budget by a part in 1e12.
func trim(o *Oracle, opt Options, cur core.Assignment) (core.Assignment, error) {
	type cand struct {
		id    sfg.NodeID
		power float64
		gain  float64
	}
	// The incumbent is owned by the loop (callers hand over a fresh
	// assignment and use only the returned one), so each accepted removal
	// mutates it in place, and the per-step candidate buffers are reused
	// across steps — the greedy loop allocates nothing per step beyond
	// the oracle round itself.
	cands := make([]cand, 0, len(o.Sources()))
	moves := make([]core.Move, 0, len(o.Sources()))
	for !o.Cancelled() {
		cands, moves = cands[:0], moves[:0]
		for _, id := range o.Sources() {
			if cur[id] <= opt.MinFrac {
				continue
			}
			cands = append(cands, cand{id: id, gain: o.Weight(id)})
			moves = append(moves, core.Move{Source: id, Frac: cur[id] - 1})
		}
		if len(cands) == 0 {
			break
		}
		ps, err := o.PowersMoves(cur, moves)
		if err != nil {
			return nil, err
		}
		feasible := cands[:0]
		for i := range cands {
			cands[i].power = ps[i]
			if ps[i] <= opt.Budget {
				feasible = append(feasible, cands[i])
			}
		}
		if len(feasible) == 0 {
			break
		}
		// Prefer the largest cost gain; break ties toward the smallest
		// resulting power (keeps slack for later removals). The stable
		// sort keeps source order as the final tie-break, so the outcome
		// is deterministic for any worker count.
		sort.SliceStable(feasible, func(i, j int) bool {
			if feasible[i].gain != feasible[j].gain {
				return feasible[i].gain > feasible[j].gain
			}
			return feasible[i].power < feasible[j].power
		})
		cur[feasible[0].id]--
		o.StepDone(o.Cost(cur), feasible[0].power)
	}
	return cur, nil
}

// Optimize runs the "descent" strategy — the greedy max-minus-one search.
// It is a thin wrapper over RunStrategy, kept for the callers that predate
// the strategy registry.
func Optimize(g *sfg.Graph, opt Options) (*Result, error) {
	return RunStrategy(g, "descent", opt)
}
