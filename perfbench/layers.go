package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"partminer/internal/core"
	pexec "partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/index"
	"partminer/internal/partition"
	"partminer/internal/query"
)

// layers collects the per-layer metrics of a traced run. Every metric of
// perLayer is reported on every workload; a layer the workload does not
// exercise reads 0.
type layers map[string]float64

func (l layers) emit(r *run) {
	for _, m := range perLayer {
		r.metric(m.name, l[m.name], m.unit, m.target)
	}
}

func secs(d time.Duration) float64 { return d.Seconds() }

// mergeCounts records merge-join counters summed over rounds mines or
// folds as per-round means.
func (l layers) mergeCounts(p passResult) {
	if p.Rounds == 0 {
		return
	}
	n := float64(p.Rounds)
	l["merge.candidates"] = float64(p.Candidates) / n
	l["merge.iso_tests"] = float64(p.IsoTests) / n
	l["merge.frequent"] = float64(p.Frequent) / n
	l["merge.useful_ratio"] = ratio(float64(p.Frequent), float64(p.Candidates))
}

// passResult is one in-process replay of a workload's inputs. Each pass
// runs in a fresh harness process (runPass), so process-global memos such
// as mergejoin's start cold in every pass, as they do in a fresh
// partminer or partserved process.
type passResult struct {
	// Wall is the time spent inside the replayed operations.
	Wall  time.Duration `json:"wall_ns"`
	Spans []span        `json:"spans"`
	// Merge-join counters summed over Rounds mines or folds.
	Candidates int64 `json:"candidates"`
	IsoTests   int64 `json:"iso_tests"`
	Frequent   int64 `json:"frequent"`
	Rounds     int   `json:"rounds"`
	// GenericCandidates is the mean filter candidate count of the reads
	// that took the generic path.
	GenericCandidates float64 `json:"generic_candidates"`
}

func (p *passResult) addMerge(st core.Result) {
	p.Candidates += st.MergeStats.Candidates
	p.IsoTests += st.MergeStats.IsoTests
	p.Frequent += st.MergeStats.Frequent
	p.Rounds++
}

// runPass replays n operations of the run's workload in a fresh harness
// process, traced or not.
func (r *run) runPass(traced bool, n int) (passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := command(ctx, self, "-bin", r.bin, "-work", r.work, "-workload", r.workload,
		"-seed", fmt.Sprint(r.seed), "-seconds", fmt.Sprint(int(r.dur/time.Second)), "-trace", "1",
		"-pass", fmt.Sprint(n), fmt.Sprintf("-pass-traced=%v", traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	r.attempted++
	if err != nil {
		return passResult{}, fmt.Errorf("%s replay: %w", r.workload, err)
	}
	var p passResult
	if err := json.Unmarshal(out, &p); err != nil {
		return passResult{}, fmt.Errorf("%s replay output: %w", r.workload, err)
	}
	return p, nil
}

// doPass is the body of the hidden -pass mode: replay n operations of the
// workload and print the passResult as JSON.
func doPass(r *run, n int, traced bool) error {
	var t *tracer
	if traced {
		t = newTracer()
	}
	path := r.path(r.workload + ".db")
	var p passResult
	var err error
	switch r.workload {
	case "mine-batch":
		err = minePass(t, path, &p)
	case "fold-stream":
		sched := newUpdateSchedule(r.seed, workloadDB(r.seed, serveGraphs), n, true)
		err = foldPass(t, path, sched, &p)
	case "read-mixed":
		var rs *readSchedule
		if rs, err = newReadSchedule(r.seed, workloadDB(r.seed, serveGraphs), readPhases(r.dur, true)); err == nil {
			err = readPass(t, path, rs.mainArrivals(), n, &p)
		}
	}
	if err != nil {
		return err
	}
	if t != nil {
		p.Spans = t.spans
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

func readDBFile(path string) (graph.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadDatabase(f)
}

func mineOptions(db graph.Database, k int) (core.Options, error) {
	bis, err := partition.ByName("partition3")
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{MinSupport: minSupport(db), K: k, Bisector: bis}, nil
}

// minePass replays a `partminer -k 2 -parallel -workers 2` mine: the
// harness's own calls into graph, partition, the unit miner and index,
// then the full core.MineContext with its stage events as child spans.
func minePass(t *tracer, path string, p *passResult) error {
	ctx := context.Background()
	t.request()
	start := time.Now()
	root := t.begin("mine", -1)
	var db graph.Database
	var err error
	t.call("graph.parse", root, func() { db, err = readDBFile(path) })
	if err != nil {
		return err
	}
	opts, err := mineOptions(db, 2)
	if err != nil {
		return err
	}
	opts.Parallel, opts.Workers = true, 2
	var tree *partition.Tree
	t.call("partition", root, func() { tree, err = partition.DBPartition(db, opts.K, opts.Bisector) })
	if err != nil {
		return err
	}
	unitSup := (opts.MinSupport + opts.K - 1) / opts.K
	for i, leaf := range tree.Leaves() {
		t.call(fmt.Sprintf("unit.%d", i), root, func() { _, err = core.GastonMiner(ctx, leaf.DB, unitSup, 0) })
		if err != nil {
			return err
		}
	}
	t.call("index.build", root, func() { _, err = index.BuildContext(ctx, db, pexec.NewPool(opts.Workers), nil) })
	if err != nil {
		return err
	}
	cm := t.begin("core.mine", root)
	opts.Observer = t.observer(cm)
	res, err := core.MineContext(ctx, db, opts)
	t.end(cm)
	t.end(root)
	if err != nil {
		return err
	}
	p.Wall = time.Since(start)
	p.addMerge(*res)
	return nil
}

// traceMine gives mine-batch's per-layer numbers from rounds of an
// untraced and a traced pass, in alternating order, until the run's time
// is up.
func traceMine(r *run) error {
	t := &tracer{}
	var parse, part, busy, umax, skew, build, cmine, merge, root, verify, inner, self, over []float64
	var counts passResult
	start := time.Now()
	for round := 0; round < 3 || (time.Since(start) < r.dur && round < 20); round++ {
		var plain, traced passResult
		for _, tr := range []bool{round%2 == 1, round%2 == 0} {
			p, err := r.runPass(tr, 1)
			if err != nil {
				return err
			}
			if tr {
				traced = p
			} else {
				plain = p
			}
		}
		over = append(over, ratio(float64(traced.Wall-plain.Wall), float64(plain.Wall)))
		counts.Candidates += traced.Candidates
		counts.IsoTests += traced.IsoTests
		counts.Frequent += traced.Frequent
		counts.Rounds += traced.Rounds

		off := t.merge(traced.Spans)
		rootKids := t.children(off)
		parse = append(parse, secs(sumNamed(rootKids, named("graph.parse"))))
		part = append(part, secs(sumNamed(rootKids, named("partition"))))
		var units []float64
		for _, s := range rootKids {
			if isUnit(s.Name) {
				units = append(units, secs(s.dur()))
			}
		}
		b, m := unitStats(units)
		busy, umax, skew = append(busy, b), append(umax, m), append(skew, ratio(m, b/float64(len(units))))
		build = append(build, secs(sumNamed(rootKids, named("index.build"))))
		for _, c := range t.childIDs(off) {
			s := t.spans[c]
			if s.Name != "core.mine" {
				continue
			}
			kids := t.children(c)
			cmine = append(cmine, secs(s.dur()))
			self = append(self, secs(s.dur()-covered(s, kids)))
			merge = append(merge, secs(sumNamed(kids, named("merge"))))
			root = append(root, secs(sumNamed(kids, named("merge.root"))))
			verify = append(verify, secs(sumNamed(kids, named("merge.verify"))))
			inner = append(inner, secs(sumNamed(within(kids, "merge"), named("index.build"))))
		}
	}
	t.write(r)
	t.printSelf(r, 12)
	l := layers{}
	l["graph.parse_s"] = medianOf(parse)
	l["partition.s"] = medianOf(part)
	l["units.busy_s"] = medianOf(busy)
	l["units.max_s"] = medianOf(umax)
	l["units.skew"] = medianOf(skew)
	l["index.build_s"] = medianOf(build)
	l["core.mine_s"] = medianOf(cmine)
	l["core.self_s"] = medianOf(self)
	l["merge.s"] = medianOf(merge)
	l["merge.root_s"] = medianOf(root)
	l["merge.verify_s"] = medianOf(verify)
	l["index.inner_build_s"] = medianOf(inner)
	l.mergeCounts(counts)
	l["trace.overhead_frac"] = medianOf(over)
	l.emit(r)
	return nil
}

func unitStats(units []float64) (busy, maxUnit float64) {
	for _, u := range units {
		busy += u
		maxUnit = max(maxUnit, u)
	}
	return busy, maxUnit
}

// bootPass parses the workload database and mines it as partserved does
// at start-up (partition3, four units, serial), then builds the first
// snapshot's query index.
func bootPass(t *tracer, path string) (graph.Database, *core.Result, *query.Index, error) {
	t.request()
	root := t.begin("boot", -1)
	defer t.end(root)
	var db graph.Database
	var err error
	t.call("graph.parse", root, func() { db, err = readDBFile(path) })
	if err != nil {
		return nil, nil, nil, err
	}
	opts, err := mineOptions(db, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	cm := t.begin("core.mine", root)
	opts.Observer = t.observer(cm)
	res, err := core.MineContext(context.Background(), db, opts)
	t.end(cm)
	if err != nil {
		return nil, nil, nil, err
	}
	res.Options.Observer = nil
	var qix *query.Index
	t.call("server.snapshot_build", root, func() {
		qix = query.IndexFromPatterns(db, res.Index, res.Patterns, query.IndexOptions{})
	})
	return db, res, qix, nil
}

// bootLayers reads the boot request's spans: the set-up work of a served
// workload.
func bootLayers(t *tracer, l layers) {
	for i, s := range t.spans {
		if s.Name != "boot" {
			continue
		}
		kids := t.children(i)
		l["graph.parse_s"] = secs(sumNamed(kids, named("graph.parse")))
		l["server.snapshot_build_ms"] = ms(sumNamed(kids, named("server.snapshot_build")))
		for _, c := range t.childIDs(i) {
			if t.spans[c].Name == "core.mine" {
				inner := t.children(c)
				l["core.mine_s"] = secs(t.spans[c].dur())
				l["index.build_s"] = secs(sumNamed(inner, named("index.build")) - sumNamed(within(inner, "merge"), named("index.build")))
			}
		}
		return
	}
}

// foldPass replays the schedule's folds the way the server's update loop
// runs them: clone the published feature index, IncMineContext against
// the clone, build the next snapshot's query index. The observer goes on
// prev.Options, because IncMineContext reads it from there and not from
// its caller. Traced, the index patch IncMineContext performs internally
// is also timed on a twin clone, outside the fold's span.
func foldPass(t *tracer, path string, sched *updateSchedule, p *passResult) error {
	db, res, _, err := bootPass(t, path)
	if err != nil {
		return err
	}
	for i, ch := range sched.changes {
		next := append(graph.Database(nil), db...)
		var tids []int
		for tid, g := range ch {
			next[tid] = g
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		t.request()
		if t != nil {
			twin := res.Index.Clone()
			t.call("index.update", -1, func() { twin.Update(next, tids) })
		}
		t0 := time.Now()
		root := t.begin("fold", -1)
		prev := *res
		t.call("index.clone", root, func() { prev.Index = res.Index.Clone() })
		im := t.begin("core.incmine", root)
		prev.Options.Observer = t.observer(im)
		inc, err := core.IncMineContext(context.Background(), next, tids, &prev)
		t.end(im)
		if err != nil {
			return fmt.Errorf("fold %d: %w", i, err)
		}
		inc.Options.Observer = nil
		t.call("server.snapshot_build", root, func() {
			query.IndexFromPatterns(next, inc.Index, inc.Patterns, query.IndexOptions{})
		})
		t.end(root)
		p.Wall += time.Since(t0)
		p.addMerge(inc.Result)
		db, res = next, &inc.Result
	}
	return nil
}

// traceFolds gives fold-stream's per-layer numbers: server-reported fold
// figures from the load run, then an untraced and a traced replay of the
// same folds.
func traceFolds(r *run, folds []foldResult) error {
	l := layers{}
	serverFolds(l, folds)
	plain, err := r.runPass(false, len(folds))
	if err != nil {
		return err
	}
	traced, err := r.runPass(true, len(folds))
	if err != nil {
		return err
	}
	t := &tracer{}
	t.merge(traced.Spans)
	t.write(r)
	t.printSelf(r, 12)
	bootLayers(t, l)
	foldLayers(t, l)
	l.mergeCounts(traced)
	l["trace.overhead_frac"] = ratio(float64(traced.Wall-plain.Wall), float64(plain.Wall))
	l.emit(r)
	return nil
}

// serverFolds records what the server itself reported about its folds.
func serverFolds(l layers, folds []foldResult) {
	var fold, wait, remined []float64
	for _, f := range folds {
		fold = append(fold, ms(f.reply.Latency))
		wait = append(wait, ms(f.latency-f.reply.Latency))
		remined = append(remined, float64(len(f.reply.ReminedUnits)))
	}
	l["server.fold_ms"] = medianOf(fold)
	l["server.queue_wait_ms"] = medianOf(wait)
	l["units.remined_per_fold"] = mean(remined)
}

// foldLayers reduces the traced folds' spans to per-fold medians.
func foldLayers(t *tracer, l layers) {
	var part, busy, umax, skew, clone, update, inner, merge, root, verify, incmine, self, snap, cover []float64
	for i, s := range t.spans {
		switch s.Name {
		case "index.update":
			update = append(update, secs(s.dur()))
		case "fold":
			kids := t.children(i)
			clone = append(clone, secs(sumNamed(kids, named("index.clone"))))
			snap = append(snap, ms(sumNamed(kids, named("server.snapshot_build"))))
			// The fold's layer spans: its direct children, with the
			// core.incmine wrapper replaced by the stages inside it.
			var layerSpans []span
			for _, c := range t.childIDs(i) {
				if t.spans[c].Name == "core.incmine" {
					layerSpans = append(layerSpans, t.children(c)...)
				} else {
					layerSpans = append(layerSpans, t.spans[c])
				}
			}
			cover = append(cover, ratio(float64(covered(s, layerSpans)), float64(s.dur())))
		case "core.incmine":
			kids := t.children(i)
			incmine = append(incmine, secs(s.dur()))
			self = append(self, secs(s.dur()-covered(s, kids)))
			part = append(part, secs(sumNamed(kids, named("partition"))))
			var units []float64
			for _, k := range kids {
				if isUnit(k.Name) {
					units = append(units, secs(k.dur()))
				}
			}
			b, m := unitStats(units)
			busy, umax = append(busy, b), append(umax, m)
			if len(units) > 0 {
				skew = append(skew, ratio(m, b/float64(len(units))))
			}
			// The root index is patched, not rebuilt, so every index
			// build inside a fold is an inner node's.
			inner = append(inner, secs(sumNamed(kids, named("index.build"))))
			merge = append(merge, secs(sumNamed(kids, named("merge"))))
			root = append(root, secs(sumNamed(kids, named("merge.root"))))
			verify = append(verify, secs(sumNamed(kids, named("merge.verify"))))
		}
	}
	l["partition.s"] = medianOf(part)
	l["units.busy_s"] = medianOf(busy)
	l["units.max_s"] = medianOf(umax)
	l["units.skew"] = medianOf(skew)
	l["index.clone_s"] = medianOf(clone)
	l["index.update_s"] = medianOf(update)
	l["index.inner_build_s"] = medianOf(inner)
	l["merge.s"] = medianOf(merge)
	l["merge.root_s"] = medianOf(root)
	l["merge.verify_s"] = medianOf(verify)
	l["core.incmine_s"] = medianOf(incmine)
	l["core.self_s"] = medianOf(self)
	l["server.snapshot_build_ms"] = medianOf(snap)
	l["fold.covered_frac"] = medianOf(cover)
}

// readPass answers the first n contains reads of the arrivals through
// query.Index.Find, what Snapshot.Contains calls, on the first
// snapshot's index. Each read is one span named by the path it took.
func readPass(t *tracer, path string, arrivals []arrival, n int, p *passResult) error {
	_, _, qix, err := bootPass(t, path)
	if err != nil {
		return err
	}
	var cands []float64
	for _, a := range arrivals {
		if a.kind == readTopK {
			continue
		}
		if n--; n < 0 {
			break
		}
		t.request()
		t0 := time.Now()
		_, st := qix.Find(a.g)
		d := time.Since(t0)
		p.Wall += d
		shape := "query.generic"
		switch {
		case st.PlanHit:
			shape = "query.plan"
		case st.CacheHit:
			shape = "query.cache"
		default:
			cands = append(cands, float64(st.Candidates))
		}
		if t != nil {
			start := t0.Sub(t.t0)
			t.add(span{Name: shape, Start: start, End: start + d, Parent: -1})
		}
	}
	p.GenericCandidates = mean(cands)
	return nil
}

// traceReads gives read-mixed's per-layer numbers: response flags, the
// fold/read split and generator lateness from the load run, then an
// untraced and a traced replay of the same contains reads.
func traceReads(r *run, rs *readSchedule, load readLoad) error {
	l := layers{}
	serverFolds(l, load.folds)
	readFlags(l, rs.mainArrivals(), load)
	n := 0
	for _, a := range rs.mainArrivals() {
		if a.kind != readTopK {
			n++
		}
	}
	plain, err := r.runPass(false, n)
	if err != nil {
		return err
	}
	traced, err := r.runPass(true, n)
	if err != nil {
		return err
	}
	t := &tracer{}
	t.merge(traced.Spans)
	t.write(r)
	t.printSelf(r, 12)
	bootLayers(t, l)
	us := func(name string) float64 {
		var xs []float64
		for _, s := range t.spans {
			if s.Name == name {
				xs = append(xs, float64(s.dur())/float64(time.Microsecond))
			}
		}
		return medianOf(xs)
	}
	l["query.plan_us"] = us("query.plan")
	l["query.cache_us"] = us("query.cache")
	l["query.generic_us"] = us("query.generic")
	l["query.generic_candidates"] = traced.GenericCandidates
	l["trace.overhead_frac"] = ratio(float64(traced.Wall-plain.Wall), float64(plain.Wall))
	l.emit(r)
	return nil
}

// readFlags reduces the load run's open loop: path shares from each
// response's stats flags, the tail of reads that overlapped a fold
// against the rest, the server's own contains latency, and how late the
// open-loop generator sent.
func readFlags(l layers, arrivals []arrival, load readLoad) {
	var plan, cache, generic float64
	var during, idle, late, client []float64
	for i, rr := range load.main.reads {
		late = append(late, ms(rr.sent.Sub(rr.due)))
		if !rr.ok {
			continue
		}
		client = append(client, ms(rr.done.Sub(rr.sent)))
		lat := ms(rr.latency())
		if overlapsFold(rr, load.folds) {
			during = append(during, lat)
		} else {
			idle = append(idle, lat)
		}
		if arrivals[i].kind == readTopK {
			continue
		}
		switch {
		case rr.stats["plan_hit"] == 1:
			plan++
		case rr.stats["cache_hit"] == 1:
			cache++
		default:
			generic++
		}
	}
	n := plan + cache + generic
	l["query.reads"] = n
	l["query.plan_hit_share"] = ratio(plan, n)
	l["query.cache_hit_share"] = ratio(cache, n)
	l["query.generic_share"] = ratio(generic, n)
	l["read.during_fold_tail_ms"] = summarize(during).Tail
	l["read.idle_tail_ms"] = summarize(idle).Tail
	l["read.client_ms"] = mean(client)
	if load.httpN > 0 {
		l["server.http_ms"] = 1000 * load.httpSum / load.httpN
	}
	sort.Float64s(late)
	l["gen.late_ms"] = quantile(late, 0.99)
	l["gen.backlog_max"] = float64(load.main.backlogMax)
}

func overlapsFold(rr readResult, folds []foldResult) bool {
	for _, f := range folds {
		if rr.sent.Before(f.sent.Add(f.latency)) && f.sent.Before(rr.done) {
			return true
		}
	}
	return false
}
