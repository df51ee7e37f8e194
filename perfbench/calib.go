package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// calibrationWork is a fixed workload that uses no code of the program:
// random labelled graphs whose two-edge paths are counted by string key
// in a map and sorted, the mix of small allocations, hashing, pointer
// chasing and garbage collection that mining does. Its time tracks how
// fast the machine runs that kind of code at the moment, so dividing a
// timing by it cancels the machine's drift, which on a shared host is far
// wider than the regressions the bounds are there to catch.
func calibrationWork() int {
	rng := rand.New(rand.NewSource(42))
	type edge struct{ to, label int }
	counts := make(map[string]int)
	buf := make([]byte, 0, 32)
	for g := 0; g < 1500; g++ {
		const n, m = 20, 30
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(20)
		}
		adj := make([][]edge, n)
		for i := 0; i < m; i++ {
			u, v, l := rng.Intn(n), rng.Intn(n), rng.Intn(5)
			if u != v {
				adj[u] = append(adj[u], edge{v, l})
				adj[v] = append(adj[v], edge{u, l})
			}
		}
		for u, out := range adj {
			for _, a := range out {
				for _, b := range adj[a.to] {
					if b.to == u {
						continue
					}
					buf = strconv.AppendInt(buf[:0], int64(labels[u]), 10)
					for _, x := range []int{a.label, labels[a.to], b.label, labels[b.to]} {
						buf = append(buf, ' ')
						buf = strconv.AppendInt(buf, int64(x), 10)
					}
					counts[string(buf)]++
				}
			}
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0
	for i, k := range keys {
		sum += i * counts[k]
	}
	return sum
}

// refCalibrationMs defines the reference machine every gated timing is
// scaled to: one on which calibrationWork takes this long.
const refCalibrationMs = 100

// timeCalibration runs calibrationWork once and returns its wall time.
func timeCalibration() time.Duration {
	t0 := time.Now()
	calibrationWork()
	return time.Since(t0)
}

// calibrate times calibrationWork n times, each in a fresh harness
// process so that the harness's own heap does not weigh on it, and keeps
// the samples. Runs take their samples beside the program's timings,
// while the program is idle.
func (r *run) calibrate(n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		out, err := command(ctx, self, "-calibrate").Output()
		cancel()
		if err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		var ns int64
		if _, err := fmt.Sscan(strings.TrimSpace(string(out)), &ns); err != nil {
			return fmt.Errorf("calibration output %q: %w", out, err)
		}
		r.cal = append(r.cal, ms(time.Duration(ns)))
	}
	return nil
}

// speed is the factor that scales a timing of this run to the reference
// machine: refCalibrationMs over the run's median calibration time.
func (r *run) speed() float64 { return refCalibrationMs / medianOf(r.cal) }
