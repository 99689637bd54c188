package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer. Spans of one execution of a job share Run ("e2e" for the loopback
// client, "replay" for the in-process replay) and Trace (the job's index
// in its list); a root span has Parent -1.
type span struct {
	Run    string `json:"run"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one job's spans in memory. With on false it records
// nothing and only reads the clock.
type recorder struct {
	on     bool
	run    string
	trace  int
	parent int // parent of the spans timeCall opens
	spans  []span
}

// begin opens a span at the given instant and returns its ID (-1 when
// recording is off).
func (r *recorder) begin(name string, parent int, at time.Time) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Run: r.run, Trace: r.trace, ID: len(r.spans), Parent: parent, Name: name, Start: at.UnixNano()})
	return len(r.spans) - 1
}

// end closes span id now and returns the instant.
func (r *recorder) end(id int) time.Time {
	t := time.Now()
	r.endAt(id, t)
	return t
}

func (r *recorder) endAt(id int, t time.Time) {
	if id >= 0 {
		r.spans[id].End = t.UnixNano()
	}
}

// timeCall runs fn inside a span named name, a child of r.parent, and
// returns its duration.
func (r *recorder) timeCall(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	id := r.begin(name, r.parent, start)
	err := fn()
	end := r.end(id)
	return end.Sub(start), err
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by nearest rank (xs is sorted in
// place); NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs, or the mean of the two middle values
// (xs is sorted in place); NaN when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	sort.Float64s(xs)
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerRow is one line of a layer report.
type layerRow struct {
	name     string
	value    float64 // median microseconds
	n        int     // samples behind the median
	blocking bool    // on the median job's blocking path
}

// printLayers writes the layer table of one workload: every layer median,
// which of them block the median job, their sum against the end-to-end
// p50, and the remainder no layer accounts for.
func printLayers(w io.Writer, workload string, e2eP50 float64, rows []layerRow, unaccounted float64) {
	fmt.Fprintf(w, "\nlayer report: %s (medians per job, microseconds)\n", workload)
	fmt.Fprintf(w, "  %-26s %12s %8s  %s\n", "layer", "median_us", "n", "blocking")
	var sum float64
	for _, r := range rows {
		mark := ""
		if r.blocking {
			mark = "yes"
			sum += r.value
		}
		fmt.Fprintf(w, "  %-26s %12.1f %8d  %s\n", r.name, r.value, r.n, mark)
	}
	fmt.Fprintf(w, "  %-26s %12.1f\n", "sum of blocking layers", sum)
	fmt.Fprintf(w, "  %-26s %12.1f\n", "e2e p50", e2eP50)
	fmt.Fprintf(w, "  %-26s %12.1f\n", "unaccounted_us", unaccounted)
}
