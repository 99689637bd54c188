// Word-length optimization walkthrough: the application the paper's fast
// evaluator enables. A greedy optimizer assigns per-source fractional
// widths on the Fig. 3 DWT codec under an output-noise budget, using the
// proposed PSD evaluator as its oracle — hundreds of evaluations that
// would take days with Monte-Carlo simulation finish in milliseconds.
//
//	go run ./examples/wlopt
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/fxsim"
	"repro/internal/systems"
	"repro/internal/wlopt"
)

func main() {
	sys := systems.NewDWT()
	g, err := sys.Graph(16)
	if err != nil {
		log.Fatal(err)
	}
	const budget = 1e-7
	start := time.Now()
	res, err := wlopt.Optimize(g, wlopt.Options{
		Budget:  budget,
		MinFrac: 4,
		MaxFrac: 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("optimized %d sources in %v (%d oracle evaluations)\n",
		len(res.Fracs), elapsed.Round(time.Millisecond), res.Evaluations)
	fmt.Printf("noise budget %.3g -> achieved %.3g\n", budget, res.Power)
	fmt.Printf("cost: %g bits (uniform baseline: %g bits at d = %d)\n\n",
		res.Cost, res.UniformCost, res.UniformFrac)

	names := make([]string, 0, len(res.Fracs))
	for n := range res.Fracs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-10s %2d fractional bits\n", n, res.Fracs[n])
	}

	// Validate the assignment with one Monte-Carlo run. The optimizer only
	// reads the graph, so write the chosen widths into it first.
	for _, id := range g.NoiseSources() {
		n := g.Node(id)
		n.Noise.Frac = res.Fracs[n.Noise.Name]
	}
	sim, err := fxsim.Run(g, fxsim.Config{Samples: 1 << 20, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	status := "within"
	if sim.Power > budget {
		status = "over"
	}
	fmt.Printf("\nsimulated power of the optimized system: %.3g (%s budget)\n", sim.Power, status)
	perEval := elapsed / time.Duration(res.Evaluations)
	fmt.Printf("per-evaluation cost: %v analytical — the same search with %d simulations would take ~%v\n",
		perEval.Round(time.Microsecond), res.Evaluations,
		(time.Duration(res.Evaluations) * time.Second).Round(time.Second))
}
