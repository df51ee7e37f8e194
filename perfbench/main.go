// Command perfbench is the repository's end-to-end benchmark. It drives
// the real partminer and partserved binaries from one load-generating
// process on inputs made from a seed, checks every answer it can for
// exactness, and prints the metrics BENCHMARK.json declares:
//
//	perfbench -bin DIR -work DIR --workload mine-batch --seed 1 --seconds 20 --trace 0
//
// perfbench/run.sh builds the binaries and supplies -bin and -work. With
// --trace 0 the run times the binaries and prints the end-to-end metrics;
// with --trace 1 it prints the per-layer metrics instead, from response
// fields of a shorter load run plus an in-process replay of the same
// inputs whose calls into each module are wrapped in spans (trace.go).
// The last line of standard output is one JSON object; everything above
// it is the human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(r *run) error{
	"mine-batch":  mineBatch,
	"fold-stream": foldStream,
	"read-mixed":  readMixed,
}

// run is one benchmark invocation: its settings and what it reports.
type run struct {
	env
	workload string
	seed     int64
	dur      time.Duration
	traced   bool

	metrics   map[string]metric
	cal       []float64 // calibration times in ms (calib.go)
	lines     []string
	attempted int
	failed    int
	// mismatches counts answers that differ from the reference; any makes
	// the run incorrect.
	mismatches int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric records one metric of the JSON result and prints it.
func (r *run) metric(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.info(name, v, unit, note)
}

// scaled records a timing metric of the JSON result scaled to the
// reference machine (calib.go); the report also prints the measured value.
func (r *run) scaled(name string, v float64, unit, note string) {
	s := r.speed()
	r.metrics[name] = metric{Value: v * s, Unit: unit}
	r.info(name, v*s, unit, fmt.Sprintf("%s; measured %.6g", note, v))
}

// info prints a figure that is not part of the JSON result.
func (r *run) info(name string, v float64, unit, note string) {
	line := fmt.Sprintf("  %-28s %14.6g %-6s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

func (r *run) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// timing records a latency series by its median and tail: as scaled JSON
// metrics when gated, as measured figures otherwise.
func (r *run) timing(p50Name, tailName, unit string, s summary, gated bool) {
	rec := r.info
	if gated {
		rec = r.scaled
	}
	rec(p50Name, s.P50, unit, fmt.Sprintf("median of n=%d", s.N))
	rec(tailName, s.Tail, unit, fmt.Sprintf("p%.4g of n=%d", s.TailPct, s.N))
}

// mismatch counts one failed exactness check.
func (r *run) mismatch(format string, args ...any) {
	r.mismatches++
	r.failed++
	r.printf("  MISMATCH: "+format, args...)
}

func main() {
	var r run
	flag.StringVar(&r.bin, "bin", "", "directory holding the built partminer and partserved binaries")
	flag.StringVar(&r.work, "work", "", "scratch directory for generated inputs and server logs")
	flag.StringVar(&r.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&r.seed, "seed", 1, "seed every input is made from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	pass := flag.Int("pass", -1, "internal: replay this many operations of the workload in process and print the pass as JSON")
	passTraced := flag.Bool("pass-traced", false, "internal: trace the -pass replay")
	calibrate := flag.Bool("calibrate", false, "internal: run the calibration workload once and print its time in nanoseconds")
	flag.Parse()
	if *calibrate {
		fmt.Println(int64(timeCalibration()))
		return
	}

	drive, ok := workloads[r.workload]
	if !ok || r.bin == "" || r.work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin, -work, --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r.dur = time.Duration(*seconds) * time.Second
	r.traced = *trace == 1
	r.metrics = make(map[string]metric)
	if *pass >= 0 {
		if err := doPass(&r, *pass, *passTraced); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fatal(err)
	}
	// The load generator allocates per request; collecting less often
	// keeps its own pauses out of the latencies it records.
	debug.SetGCPercent(400)

	mode := "end-to-end"
	if r.traced {
		mode = "traced"
	}
	r.printf("perfbench %s  seed=%d  seconds=%d  %s run", r.workload, r.seed, *seconds, mode)
	if err := drive(&r); err != nil {
		fatal(err)
	}
	if !r.traced {
		r.printf("  calibration: median %.4g ms of n=%d runs; gated timings are scaled by %.4g to a machine where it takes %d ms", medianOf(r.cal), len(r.cal), r.speed(), refCalibrationMs)
	}
	for _, line := range r.lines {
		fmt.Println(line)
	}
	if r.attempted < 1 {
		fatal(fmt.Errorf("no operation attempted"))
	}
	if err := r.checkMetricSet(); err != nil {
		fatal(err)
	}
	fmt.Printf("  %-28s %14.6g %-6s  %d failed of %d attempted\n", "fail_frac", float64(r.failed)/float64(r.attempted), "ratio", r.failed, r.attempted)
	out, err := json.Marshal(map[string]any{
		"correct":   r.mismatches == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if r.mismatches > 0 {
		os.Exit(1)
	}
}

// checkMetricSet makes sure the run reported exactly the metrics
// BENCHMARK.json declares for its mode.
func (r *run) checkMetricSet() error {
	var want []string
	if r.traced {
		for _, m := range perLayer {
			want = append(want, m.name)
		}
	} else {
		for _, m := range endToEnd {
			want = append(want, m.name)
		}
	}
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("metric %s not reported", name)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(r.metrics), len(want))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
