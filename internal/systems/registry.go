package systems

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/filter"
)

// Registry returns one fresh instance of every benchmark system, in a
// stable order under stable names: the two Table-I representatives (one
// FIR, one IIR single-filter workload), the paper's Fig. 2 and Fig. 3
// systems, and the two multirate kernels. Sweep-style tooling (the
// scenario suite, future workload generators) iterates this list so a new
// system added here is picked up everywhere; instances are fresh per call,
// so a caller may write widths into the graphs it builds from them.
func Registry() ([]System, error) {
	fir, err := filter.DesignFIR(filter.FIRSpec{
		Band: filter.Lowpass, Taps: 31, F1: 0.2, Window: dsp.Hamming,
	})
	if err != nil {
		return nil, fmt.Errorf("systems: registry FIR: %w", err)
	}
	iir, err := filter.DesignIIR(filter.IIRSpec{
		Kind: filter.Butterworth, Band: filter.Lowpass, Order: 4, F1: 0.2,
	})
	if err != nil {
		return nil, fmt.Errorf("systems: registry IIR: %w", err)
	}
	ff, err := NewFreqFilter()
	if err != nil {
		return nil, fmt.Errorf("systems: registry freq-filter: %w", err)
	}
	return []System{
		&SingleFilter{Filt: fir, Label: "fir-lp31(tab1)"},
		&SingleFilter{Filt: iir, Label: "iir-bw4(tab1)"},
		ff,
		NewDWT(),
		NewDecimator(),
		NewInterpolator(),
	}, nil
}

// RegistryNames returns the names of every registered system, in registry
// order.
func RegistryNames() ([]string, error) {
	systems, err := Registry()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.Name()
	}
	return names, nil
}
