package wlopt

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/sfg"
	"repro/internal/trace"
)

// Strategy is a pluggable word-length search procedure. A strategy receives
// the accuracy oracle and the validated options, explores assignments by
// scoring them through the oracle (batch calls fan out across the worker
// pool), and reports its chosen assignment in the Result. It must not
// write widths into the graph: concurrent searches may share it.
//
// Implementations must be deterministic for a given (graph, Options) pair
// at every Options.Workers value: randomized searches must draw all
// randomness from Options.Seed in an order independent of the pool width.
type Strategy interface {
	// Name is the stable registry key ("descent", "ascent", ...).
	Name() string
	// Run executes the search. RunStrategy has already validated the
	// options and checked that the graph has noise sources.
	Run(o *Oracle, opt Options) (*Result, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Strategy{}
	regOrder   []string
)

// Register adds a strategy under its Name. It panics on an empty or
// duplicate name — registration happens at init time, where a collision is
// a programming error.
func Register(s Strategy) {
	name := s.Name()
	if name == "" {
		panic("wlopt: Register with empty strategy name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("wlopt: strategy %q registered twice", name))
	}
	registry[name] = s
	regOrder = append(regOrder, name)
}

// Lookup returns the registered strategy with the given name.
func Lookup(name string) (Strategy, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Strategies lists every registered strategy name in registration order
// (the four built-ins first: descent, ascent, hybrid, anneal).
func Strategies() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// RunStrategy validates the options, builds the oracle, and runs the named
// registered strategy on g. It is a pure function of (g, opt): g is only
// read, so concurrent runs may share one graph. Callers wanting the
// optimized widths in a graph write Result.Fracs into it by source name.
func RunStrategy(g *sfg.Graph, name string, opt Options) (*Result, error) {
	s, ok := Lookup(name)
	if !ok {
		known := Strategies()
		sort.Strings(known)
		return nil, fmt.Errorf("wlopt: unknown strategy %q (registered: %v)", name, known)
	}
	if err := checkOptions(opt); err != nil {
		return nil, err
	}
	if len(g.NoiseSources()) == 0 {
		return nil, fmt.Errorf("wlopt: graph has no noise sources")
	}
	o := newOracle(g, opt)
	o.strategy = s.Name()
	// The search span covers the whole strategy run; it is a no-op unless
	// Options.Context carries an active trace span (the serving tier's
	// traced submit path), so library and benchmark callers pay nothing.
	sp, _ := trace.Start(opt.Context, "search")
	sp.SetAttr("strategy", s.Name())
	res, err := s.Run(o, opt)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, err
	}
	res.Strategy = s.Name()
	// The flag is set centrally so every strategy reports cancellation the
	// same way: strategies react to a cancelled context by breaking out of
	// their search loops with the best-so-far assignment.
	res.Cancelled = o.Cancelled()
	sp.SetAttr("evaluations", strconv.Itoa(res.Evaluations))
	if res.Cancelled {
		sp.SetAttr("cancelled", "true")
	}
	sp.End()
	return res, nil
}

func init() {
	Register(descentStrategy{})
	Register(ascentStrategy{})
	Register(hybridStrategy{})
	Register(annealStrategy{})
}
