package main

import (
	"bytes"
	"fmt"
	"os"
	"time"
)

// setupRounds is how many times a run repeats the program's set-up; the
// reported setup_s is their median.
const setupRounds = 5

// noneFrequent is an absolute support no database here reaches, so a mine
// at it stops after loading the database and counting edges.
const noneFrequent = "1000000000"

// writeDB generates a workload database and writes it for the binaries.
func (r *run) writeDB(name string, graphs int) (string, []byte, error) {
	text := dbText(workloadDB(r.seed, graphs))
	path := r.path(name + ".db")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		return "", nil, err
	}
	r.printf("  input %-22s graphs=%d fnv64=%s", "database", graphs, fingerprint(text))
	return path, text, nil
}

// yardstick times whole-database Gaston processes on dbPath: the
// unpartitioned in-memory miner every PartMiner figure is compared with.
// Calibration samples (calib.go) precede each.
func (r *run) yardstick(dbPath string, rounds int) ([]float64, error) {
	var walls []float64
	for i := 0; i < rounds; i++ {
		if err := r.calibrate(2); err != nil {
			return nil, err
		}
		res, err := r.runPartminer("-minsup", fmt.Sprint(minsupFrac), "-miner", "gaston", dbPath)
		r.attempted++
		if err != nil {
			return nil, err
		}
		walls = append(walls, ms(res.wall))
	}
	return walls, nil
}

// mineBatch alternates fresh `partminer -k 2 -parallel -workers 2`
// processes with fresh whole-database Gaston processes on one 5000-graph
// database, and checks that both print the same patterns and supports.
func mineBatch(r *run) error {
	path, _, err := r.writeDB("mine-batch", mineGraphs)
	if err != nil {
		return err
	}
	if r.traced {
		return traceMine(r)
	}

	// Set-up of a CLI mine is loading the database: a process that parses
	// it and finds nothing frequent.
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if err := r.calibrate(1); err != nil {
			return err
		}
		res, err := r.runPartminer("-minsup", noneFrequent, "-miner", "gaston", path)
		r.attempted++
		if err != nil {
			return err
		}
		setups = append(setups, res.wall.Seconds())
	}

	sup := fmt.Sprint(minsupFrac)
	var mines, gastons, rss, gastonRSS []float64
	start := time.Now()
	for len(mines) < 3 || time.Since(start) < r.dur {
		if err := r.calibrate(1); err != nil {
			return err
		}
		pm, err := r.runPartminer("-minsup", sup, "-k", "2", "-parallel", "-workers", "2", "-patterns", path)
		if err != nil {
			return err
		}
		if err := r.calibrate(1); err != nil {
			return err
		}
		ga, err := r.runPartminer("-minsup", sup, "-miner", "gaston", "-patterns", path)
		if err != nil {
			return err
		}
		r.attempted += 2
		mines = append(mines, ms(pm.wall))
		gastons = append(gastons, ms(ga.wall))
		rss = append(rss, pm.rssMB)
		gastonRSS = append(gastonRSS, ga.rssMB)
		want, got := patternLines(ga.stdout), patternLines(pm.stdout)
		if len(want) == 0 {
			r.mismatch("sample %d: whole-DB Gaston printed no patterns", len(mines))
		} else if !bytes.Equal(want, got) {
			r.mismatch("sample %d: PartMiner's patterns differ from whole-DB Gaston's", len(mines))
		}
	}

	m, g := summarize(mines), summarize(gastons)
	r.scaled("setup_s", medianOf(setups), "s", fmt.Sprintf("median of n=%d database loads (parse, nothing frequent)", len(setups)))
	r.metric("peak_rss_mb", medianOf(rss), "MB", fmt.Sprintf("median partminer peak RSS of n=%d; Gaston's is %.1f MB", len(rss), medianOf(gastonRSS)))
	r.timing("op_p50_ms", "op_tail_ms", "ms", m, true)
	r.scaled("gaston_ms", g.P50, "ms", fmt.Sprintf("median of n=%d whole-DB Gaston processes", g.N))
	r.info("mine_s", m.P50/1000, "s", fmt.Sprintf("op_p50_ms as measured; PartMiner/Gaston = %.3f", m.P50/g.P50))
	r.info("gaston_s", g.P50/1000, "s", "gaston_ms as measured")
	return nil
}

// patternLines keeps the "<code> support=<n>" lines of a -patterns
// listing, dropping the header that carries the wall time.
func patternLines(out []byte) []byte {
	var keep [][]byte
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.Contains(line, []byte(" support=")) {
			keep = append(keep, line)
		}
	}
	return bytes.Join(keep, []byte("\n"))
}
