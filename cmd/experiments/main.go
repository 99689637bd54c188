// Command experiments reproduces the paper's evaluation section: every
// table and figure has a subcommand that prints the same rows or series the
// paper reports (and, for Fig. 7, writes the PGM image pair).
//
// Usage:
//
//	experiments -exp all                    # everything at default scale
//	experiments -exp table1 -samples 1000000
//	experiments -exp fig7 -out ./out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig4|fig5|table2|fig6|fig7|wlopt|ablation|all")
		samples = flag.Int("samples", 1<<20, "Monte-Carlo sample count (paper: 1e6-1e7)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		npsd    = flag.Int("npsd", 1024, "PSD bins for the proposed method")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool width for parallel evaluation/simulation")
		outDir  = flag.String("out", ".", "output directory for Fig. 7 images")
		images  = flag.Int("images", 196, "Fig. 7 corpus size")
		size    = flag.Int("size", 64, "Fig. 7 image side")
	)
	flag.Parse()

	// Reject unknown experiment names before doing any work, so a typo
	// exits non-zero with usage instead of silently running nothing.
	switch *exp {
	case "all", "table1", "fig4", "fig5", "table2", "fig6", "fig7", "wlopt", "ablation":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	opt := experiments.Options{Samples: *samples, Seed: *seed, NPSD: *npsd, Workers: *workers}
	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		run("table1", func() error {
			r, err := experiments.Table1(opt)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
	if want("fig4") {
		run("fig4", func() error {
			r, err := experiments.Fig4(opt)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
	if want("fig5") {
		run("fig5", func() error {
			r, err := experiments.Fig5(opt)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
	if want("table2") {
		run("table2", func() error {
			r, err := experiments.Table2(opt)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
	if want("fig6") {
		run("fig6", func() error {
			r, err := experiments.Fig6(opt)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
	if want("wlopt") {
		run("wlopt", func() error {
			r, err := experiments.WLOpt(opt)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
	if want("ablation") {
		run("ablation", func() error {
			r, err := experiments.Ablation(opt)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
	if want("fig7") {
		run("fig7", func() error {
			r, err := experiments.Fig7(experiments.Fig7Options{
				Size: *size, Images: *images, Seed: *seed, OutDir: *outDir,
			})
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		})
	}
}
