package wlopt

import "repro/internal/core"

// hybridStrategy combines the two greedy directions: a min-plus-one climb
// from MinFrac to the first feasible assignment, then a max-minus-one trim
// of that assignment. The climb overshoots — its last increment often
// leaves slack that earlier, coarser increments baked into other sources —
// and the trim recovers those bits. The result costs no more than the pure
// ascent result at an oracle-call count far below the pure descent (the
// trim starts near the answer instead of at MaxFrac).
type hybridStrategy struct{}

// Name implements Strategy.
func (hybridStrategy) Name() string { return "hybrid" }

// Run implements Strategy.
func (hybridStrategy) Run(o *Oracle, opt Options) (*Result, error) {
	res := &Result{Fracs: map[string]int{}}
	if err := o.requireFeasible(opt); err != nil {
		return nil, err
	}

	// Phase 1: greedy climb to feasibility.
	cur := core.UniformAssignment(o.Sources(), opt.MinFrac)
	power, err := o.Power(cur)
	if err != nil {
		return nil, err
	}
	cur, _, err = climb(o, opt, cur, power)
	if err != nil {
		return nil, err
	}

	// Phase 2: trim the overshoot back down.
	cur, err = trim(o, opt, cur)
	if err != nil {
		return nil, err
	}

	final, err := o.Power(cur)
	if err != nil {
		return nil, err
	}
	res.Power = final
	o.fillAssignment(res, cur)

	ufrac, err := UniformBaseline(o, opt)
	if err != nil {
		return nil, err
	}
	o.fillUniform(res, ufrac)
	res.Evaluations = o.Evaluations()
	return res, nil
}
