package gen

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/spec"
)

// digests returns the content digests of the first n specs of mk.
func digests(t *testing.T, n int, mk func(i int) *spec.Spec) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		d, err := mk(i).Digest()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		out[i] = d
	}
	return out
}

func families(seed int64) map[string]func(i int) *spec.Spec {
	return map[string]func(i int) *spec.Spec{
		"comb-cold": func(i int) *spec.Spec { return Comb(seed, 0, i) },
		"comb-hot":  func(i int) *spec.Spec { return Comb(seed, 1, i) },
		"sweep":     func(i int) *spec.Spec { return Sweep(seed, i) },
	}
}

func TestSameSeedSameDigests(t *testing.T) {
	for name, mk := range families(7) {
		a := digests(t, 12, mk)
		b := digests(t, 12, families(7)[name])
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: digest %s, then %s", name, i, a[i], b[i])
			}
		}
	}
}

func TestDistinctSeedsDisjointDigests(t *testing.T) {
	seen := map[string]string{}
	for _, seed := range []int64{1, 2, 3, 1000} {
		for name, mk := range families(seed) {
			for i, d := range digests(t, 12, mk) {
				at := fmt.Sprintf("seed %d %s[%d]", seed, name, i)
				if prev, dup := seen[d]; dup {
					t.Errorf("%s: digest %s already drawn by %s", at, d, prev)
				}
				seen[d] = at
			}
		}
	}
}

func TestSweepGraphsExportAndCountSources(t *testing.T) {
	for k := 0; k < 8; k++ {
		sp := Sweep(3, k)
		data, err := sp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := spec.Parse(data)
		if err != nil {
			t.Fatalf("graph %d does not parse back: %v", k, err)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("graph %d: export is not a fixed point", k)
		}
		g, err := back.Build()
		if err != nil {
			t.Fatalf("graph %d: %v", k, err)
		}
		if n := len(g.NoiseSources()); n != SweepSources {
			t.Errorf("graph %d: %d noise sources, want %d", k, n, SweepSources)
		}
	}
}

func TestSweepOrderIsDigestMajor(t *testing.T) {
	graphs := []*spec.Spec{Sweep(1, 0), Sweep(1, 1)}
	perGraph := len(SweepWidths) * len(Strategies)
	for i := 0; i < 2*len(graphs)*perGraph; i++ {
		want := graphs[(i/perGraph)%len(graphs)]
		if got := SweepOrder(graphs, i); got.Name != want.Name {
			t.Fatalf("job %d on %s, want %s", i, got.Name, want.Name)
		}
		if pass := SweepOrder(graphs, i).Options.Seed; pass != int64(i/(perGraph*len(graphs)))+1 {
			t.Fatalf("job %d: options seed %d", i, pass)
		}
	}
}
