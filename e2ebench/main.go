// Command e2ebench is the repository's end-to-end benchmark. One run
// builds its own model population in a fresh store, prepares the attack,
// drives one workload at concurrency 1 for a fixed wall time, checks every
// output, and prints one JSON result line:
//
//	e2ebench -workload campaign -seed 1 -seconds 10 -trace 0
//
// With -trace 1 it instead reports per-layer metrics: it runs half the time
// untraced, then attacks each victim through core.Attack.RunContext and
// replays it through every layer's exported call, recording a span around
// each. See README.md in this directory for the workloads, the metric
// definitions and the layer-to-end-to-end mapping.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	quick    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: measurement seeds, fault-plan seed and victim order")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall time of the measured phase")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 runs the traced per-layer mode")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for each run's store, service state and span file")
	fs.BoolVar(&o.quick, "quick", false, "minimal population and one set-up (self-check only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q (use %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, errors.New("-seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	if err := initRef(); err != nil {
		return err
	}
	w := workloads[o.workload]
	var res *result
	if o.trace {
		res, err = runTraced(ctx, w, o, stdout)
	} else {
		res, err = runUntraced(ctx, w, o)
	}
	if err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setupRuns is how many cold set-ups an untraced run makes; setup_s is
// their median.
const setupRuns = 3

// runUntraced sets up setupRuns times (once with -quick), keeps the last
// set-up, and measures the workload for o.seconds.
func runUntraced(ctx context.Context, w workload, o options) (*result, error) {
	n := setupRuns
	if o.quick {
		n = 1
	}
	var setupS []float64
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		var err error
		e, err = setup(ctx, w, o)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, e.times.total)
	}
	defer e.close()
	r := newRunner(e, w, o)
	t, err := r.measure(ctx, o.seconds)
	if err != nil {
		return nil, err
	}
	m := t.endToEnd()
	// Set-up runs inside the library, where no reference samples can be
	// interleaved, so it is scaled by the measured phase's samples, taken
	// seconds later: the host's speed drifts over minutes, and unscaled,
	// the median setup_s of ten runs per workload rose 21-28% from one set
	// of runs to the next, with the same set-up code.
	m["setup_s"] = metric{median(setupS) / hostScale(t.ref), "s"}
	return t.result(m), nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
