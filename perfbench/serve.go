package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/query"
	"partminer/internal/server"
)

// serveArgs runs partserved as the workloads specify: four units, every
// other setting at its default.
var serveArgs = []string{"-minsup", fmt.Sprint(minsupFrac), "-k", "4"}

// A served workload times whole-database Gaston processes yardstickEdge
// times before the server starts and again after it stops, and at each of
// the run's pauses in between (fold-stream: yardstickGap at each of two;
// read-mixed: one between each two closed segments), so the yardstick
// samples the whole run rather than its two ends.
const (
	yardstickEdge = 4
	yardstickGap  = 3
)

// maxFoldRequests bounds the precomputed fold-stream schedule; a run stops
// early if it ever gets through all of it.
const maxFoldRequests = 4000

// bootServer starts partserved setupRounds times on dbPath, keeps the
// last one running, and records the median start-up time as setup_s.
func (r *run) bootServer(dbPath string) (*served, []float64, error) {
	var s *served
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		s, d, err = r.startServer(fmt.Sprintf("%s-%d", r.workload, i), dbPath, serveArgs...)
		r.attempted++
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return s, setups, nil
}

// foldResult is one /v1/update call as the client saw it.
type foldResult struct {
	size    int
	sent    time.Time
	latency time.Duration // client-observed
	reply   server.ApplyResult
}

// postUpdate sends request i of the schedule and checks that it landed in
// epoch i+2: the harness's epoch numbering for its database copies.
func (r *run) postUpdate(s *served, sched *updateSchedule, i int) (foldResult, error) {
	body, err := json.Marshal(map[string]any{"ops": sched.reqs[i]})
	if err != nil {
		return foldResult{}, err
	}
	fr := foldResult{size: len(sched.reqs[i]), sent: time.Now()}
	err = s.post("/v1/update", body, &fr.reply)
	fr.latency = time.Since(fr.sent)
	if err != nil {
		return fr, fmt.Errorf("update %d: %w", i, err)
	}
	if want := uint64(i + 2); fr.reply.Epoch != want || fr.reply.Ops != len(sched.reqs[i]) {
		return fr, fmt.Errorf("update %d landed in epoch %d with %d ops; want epoch %d with %d", i, fr.reply.Epoch, fr.reply.Ops, want, len(sched.reqs[i]))
	}
	return fr, nil
}

// checkPatterns compares the server's complete pattern set with a
// whole-database Gaston mine of the harness's own copy of the database.
func (r *run) checkPatterns(s *served, db graph.Database, epoch uint64) {
	r.attempted++
	var reply struct {
		Epoch    uint64 `json:"epoch"`
		Patterns []struct {
			Key     string `json:"key"`
			Support int    `json:"support"`
		} `json:"patterns"`
	}
	if err := s.getJSON("/v1/patterns?k=0", &reply); err != nil {
		r.mismatch("final pattern read failed: %v", err)
		return
	}
	if reply.Epoch != epoch {
		r.mismatch("final pattern read at epoch %d, want %d", reply.Epoch, epoch)
		return
	}
	want, err := gaston.MineContext(context.Background(), db, gaston.Options{MinSupport: minSupport(db)})
	if err != nil {
		r.mismatch("reference mine failed: %v", err)
		return
	}
	got := make(map[string]int, len(reply.Patterns))
	for _, p := range reply.Patterns {
		got[p.Key] = p.Support
	}
	bad := len(got) != len(want)
	for k, p := range want {
		if got[k] != p.Support {
			bad = true
		}
	}
	if bad {
		r.mismatch("epoch %d: server holds %d patterns, whole-DB Gaston finds %d, or supports differ", epoch, len(got), len(want))
		return
	}
	r.printf("  check: epoch %d pattern set equals whole-DB Gaston (%d patterns)", epoch, len(want))
}

// foldStream drives partserved with one closed-loop client sending
// /v1/update requests of 1, 8 or 64 ops and no reads.
func foldStream(r *run) error {
	path, _, err := r.writeDB("fold-stream", serveGraphs)
	if err != nil {
		return err
	}
	sched := newUpdateSchedule(r.seed, workloadDB(r.seed, serveGraphs), maxFoldRequests, true)
	r.printf("  input %-22s requests=%d fnv64=%s", "update schedule", len(sched.reqs), sched.fingerprint())
	dur := r.dur
	if r.traced {
		dur = r.dur / 3
	}
	gastons, err := r.yardstick(path, yardstickEdge)
	if err != nil {
		return err
	}
	s, setups, err := r.bootServer(path)
	if err != nil {
		return err
	}
	// The pauses time Gaston at the thirds and take a calibration sample
	// about once a second, so that the samples follow the machine through
	// the folds.
	var yerr error
	folds, ferr := r.foldLoop(s, sched, dur, func(third bool) {
		if !third {
			yerr = errors.Join(yerr, r.calibrate(1))
			return
		}
		more, err := r.yardstick(path, yardstickGap)
		gastons = append(gastons, more...)
		yerr = errors.Join(yerr, err)
	})
	if ferr != nil {
		r.failed++
		r.printf("  update failed: %v", ferr)
	}
	r.checkPatterns(s, sched.dbAfter(len(folds)), uint64(len(folds)+1))
	rss := s.stop()
	if yerr != nil {
		return yerr
	}
	if len(folds) == 0 {
		return fmt.Errorf("no update completed")
	}
	more, err := r.yardstick(path, yardstickEdge)
	if err != nil {
		return err
	}
	gastons = append(gastons, more...)

	if r.traced {
		return traceFolds(r, folds)
	}
	lat := make([]float64, len(folds))
	bySize := map[int]int{}
	for i, f := range folds {
		lat[i] = ms(f.latency)
		bySize[f.size]++
	}
	u := summarize(lat)
	g := medianOf(gastons)
	r.scaled("setup_s", medianOf(setups), "s", fmt.Sprintf("median of n=%d partserved starts to /healthz", len(setups)))
	r.metric("peak_rss_mb", rss, "MB", "partserved peak RSS")
	r.timing("op_p50_ms", "op_tail_ms", "ms", u, true)
	r.scaled("gaston_ms", g, "ms", fmt.Sprintf("median of n=%d whole-DB Gaston processes on the initial database", len(gastons)))
	r.timing("update_p50_ms", "update_tail_ms", "ms", u, false)
	r.info("fold/gaston", u.P50/g, "ratio", "update_p50_ms over gaston_ms")
	var sizes []string
	for _, n := range []int{1, 8, 64} {
		sizes = append(sizes, fmt.Sprintf("%d ops %.1f%%", n, 100*float64(bySize[n])/float64(len(folds))))
	}
	r.printf("  request sizes: %s of %d requests", strings.Join(sizes, ", "), len(folds))
	return nil
}

// foldLoop sends the schedule's requests back to back until dur has
// passed, stopping at the first failure. Between requests it pauses:
// pause(true) at each third of dur, and pause(false) about once a second
// otherwise.
func (r *run) foldLoop(s *served, sched *updateSchedule, dur time.Duration, pause func(third bool)) ([]foldResult, error) {
	var folds []foldResult
	start := time.Now()
	last := start
	thirds := 0
	for i := 0; i < len(sched.reqs) && time.Since(start) < dur; i++ {
		if thirds < 2 && time.Since(start) >= dur*time.Duration(thirds+1)/3 {
			thirds++
			pause(true)
			last = time.Now()
		} else if time.Since(last) >= time.Second {
			pause(false)
			last = time.Now()
		}
		fr, err := r.postUpdate(s, sched, i)
		r.attempted++
		if err != nil {
			return folds, err
		}
		folds = append(folds, fr)
	}
	return folds, nil
}

// readResult is one read request as the client saw it.
type readResult struct {
	due, sent, done time.Time
	ok              bool
	body            []byte // the raw reply, until decode
	epoch           uint64
	tids            []int
	stats           map[string]int
}

// latency is the read's time from when it was due (in a closed phase,
// from when it was sent); a failed read counts as the client timeout,
// past any latency limit.
func (rr readResult) latency() time.Duration {
	if !rr.ok {
		return readTimeout
	}
	return rr.done.Sub(rr.due)
}

const readTimeout = 5 * time.Second

// phaseResult is one read phase; reads align with the phase's arrivals.
type phaseResult struct {
	reads      []readResult
	backlogMax int64
	lateEnd    time.Duration // worst lateness over the phase's last tenth
}

// readWorkers is the read senders' count; with the update loop they share
// the client's two connections.
const readWorkers = 2

// runPhase sends every arrival of ph from readWorkers senders. An open
// phase sends each at its due time; a sender that is busy when a read
// falls due sends it late, and the read is still timed from its due time.
// A closed phase sends them back to back, each timed from its send.
func (r *run) runPhase(s *served, ph readPhase) phaseResult {
	res := phaseResult{reads: make([]readResult, len(ph.arrivals))}
	dues := make([]time.Duration, len(ph.arrivals))
	for i, a := range ph.arrivals {
		dues[i] = a.due
	}
	var next atomic.Int64
	var backlogMax atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < readWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ph.arrivals) {
					return
				}
				a := ph.arrivals[i]
				due := start.Add(a.due)
				if ph.closed {
					due = time.Now()
				} else {
					sleepUntil(due)
					// Backlog: reads already due but not yet picked up.
					now := time.Since(start)
					late := sort.Search(len(dues), func(j int) bool { return dues[j] > now })
					for b := int64(late - i - 1); ; {
						old := backlogMax.Load()
						if b <= old || backlogMax.CompareAndSwap(old, b) {
							break
						}
					}
				}
				res.reads[i] = s.read(a, due)
			}
		}()
	}
	wg.Wait()
	for i := range res.reads {
		res.reads[i].decode(ph.arrivals[i].kind)
	}
	res.backlogMax = backlogMax.Load()
	for _, rr := range res.reads[len(res.reads)*9/10:] {
		if late := rr.sent.Sub(rr.due); late > res.lateEnd {
			res.lateEnd = late
		}
	}
	return res
}

// sleepUntil blocks until t. The runtime's timers wake up to a millisecond
// late on Linux, as much as a whole Poisson gap at 1000 reads/s, so the
// generator sleeps in nanosleep(2) instead, which is late by tens of
// microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// read sends one arrival and keeps the raw reply. Decoding waits until
// the phase is over (decode), so the generator's own work stays off the
// clock.
func (s *served) read(a arrival, due time.Time) readResult {
	rr := readResult{due: due, sent: time.Now()}
	var resp *http.Response
	var err error
	if a.kind == readTopK {
		resp, err = s.client.Get(s.base + "/v1/patterns?k=10")
	} else {
		resp, err = s.client.Post(s.base+"/v1/contains", "application/json", bytes.NewReader(a.body))
	}
	if err == nil {
		rr.body, err = readBody(resp)
	}
	rr.done = time.Now()
	rr.ok = err == nil
	return rr
}

// decode fills in a finished read's reply fields. A reply that does not
// parse, or an empty top-k, fails the read.
func (rr *readResult) decode(kind readKind) {
	if !rr.ok {
		return
	}
	var reply struct {
		Epoch    uint64            `json:"epoch"`
		Patterns []json.RawMessage `json:"patterns"`
		TIDs     []int             `json:"tids"`
		Stats    map[string]int    `json:"stats"`
	}
	err := json.Unmarshal(rr.body, &reply)
	rr.body = nil
	rr.ok = err == nil && (kind != readTopK || len(reply.Patterns) > 0)
	rr.epoch, rr.tids, rr.stats = reply.Epoch, reply.TIDs, reply.Stats
}

// httpSeconds reads the contains endpoint's latency histogram sum and
// count from /metrics.
func (s *served) httpSeconds() (sum, count float64, err error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("/metrics: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for suffix, dst := range map[string]*float64{"_sum": &sum, "_count": &count} {
			prefix := "partserve_http_request_seconds" + suffix + `{endpoint="contains"} `
			if strings.HasPrefix(line, prefix) {
				if *dst, err = strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return sum, count, sc.Err()
}

// Read-mixed phases. Closed-loop segments come first, each a fixed set
// of reads sent back to back; between them the harness times whole-DB
// Gaston processes while the server idles, so the yardstick samples the
// whole run. Then the open loop at mainRate, then the rate ladder.
//
// The gated read latencies come from the closed segments. On a shared
// virtual machine an open loop leaves the processors idle between reads,
// and waking them costs whatever the host's load makes it: at 1000
// reads/s the median read moved by half from one run to the next with
// the program unchanged. A closed loop keeps them busy, so its latencies
// are the program's. The open loop's figures are still reported.
var ladderRates = []float64{1500, 2000, 3000}

const (
	mainRate       = 1000
	closedSegments = 8
	// closedRate only sizes the closed segments: each holds the reads a
	// Poisson stream at this rate would bring in a twentieth of the run,
	// a little more than the closed loop sends in that time.
	closedRate    = 4000
	readLimit     = 25 * time.Millisecond
	checkedReads  = 200
	updatesPerSec = 1
)

// readPhases lays out a run's phases, without arrivals: untraced, the
// closed segments, the open loop and the ladder steps; traced, only a
// longer open loop, whose reads the in-process passes replay.
func readPhases(dur time.Duration, traced bool) []readPhase {
	if traced {
		return []readPhase{{rate: mainRate, duration: dur * 2 / 5}}
	}
	var out []readPhase
	for i := 0; i < closedSegments; i++ {
		out = append(out, readPhase{rate: closedRate, duration: dur / 20, closed: true})
	}
	out = append(out, readPhase{rate: mainRate, duration: dur / 5})
	for _, rate := range ladderRates {
		out = append(out, readPhase{rate: rate, duration: dur / 15})
	}
	return out
}

// mainIndex is the open loop's phase: the first that is not closed.
func (s *readSchedule) mainIndex() int {
	i := 0
	for i < len(s.phases) && s.phases[i].closed {
		i++
	}
	return i
}

// mainArrivals is the open loop's arrivals.
func (s *readSchedule) mainArrivals() []arrival { return s.phases[s.mainIndex()].arrivals }

// readLoad is what a read-mixed load run observed.
type readLoad struct {
	closed  []phaseResult // the closed segments, in schedule order
	main    phaseResult   // the open loop at mainRate
	ladder  []phaseResult
	folds   []foldResult
	httpSum float64 // server-side contains seconds over the open loop
	httpN   float64
	maxRPS  float64
}

// closedReads is every read of the closed segments.
func (l readLoad) closedReads() []readResult {
	var out []readResult
	for _, pr := range l.closed {
		out = append(out, pr.reads...)
	}
	return out
}

// readMixed drives partserved with closed-loop reads and open-loop
// Poisson reads at 1000/s beside one single-op update per second, then
// steps up a rate ladder.
func readMixed(r *run) error {
	path, _, err := r.writeDB("read-mixed", serveGraphs)
	if err != nil {
		return err
	}
	base := workloadDB(r.seed, serveGraphs)
	upd := newUpdateSchedule(r.seed, base, int(r.dur/time.Second)*updatesPerSec+10, false)
	rs, err := newReadSchedule(r.seed, base, readPhases(r.dur, r.traced))
	if err != nil {
		return err
	}
	r.printf("  input %-22s requests=%d fnv64=%s", "update schedule", len(upd.reqs), upd.fingerprint())
	r.printf("  input %-22s phases=%d fnv64=%s", "read schedule", len(rs.phases), rs.fingerprint())
	gastons, err := r.yardstick(path, yardstickEdge)
	if err != nil {
		return err
	}
	s, setups, err := r.bootServer(path)
	if err != nil {
		return err
	}
	load, err := r.readLoad(s, rs, upd, func() error {
		more, err := r.yardstick(path, 1)
		gastons = append(gastons, more...)
		return err
	})
	rss := s.stop()
	if err != nil {
		return err
	}
	r.checkReads(rs, load, upd)
	more, err := r.yardstick(path, yardstickEdge)
	if err != nil {
		return err
	}
	gastons = append(gastons, more...)

	if r.traced {
		return traceReads(r, rs, load)
	}
	var p50s, tails []float64
	pct := 100.0
	for _, pr := range load.closed {
		sm := summarize(latencies(pr.reads))
		p50s, tails, pct = append(p50s, sm.P50), append(tails, sm.Tail), min(pct, sm.TailPct)
	}
	var lat, late, service []float64
	for _, rr := range load.main.reads {
		lat = append(lat, ms(rr.latency()))
		late = append(late, ms(rr.sent.Sub(rr.due)))
		service = append(service, ms(rr.done.Sub(rr.sent)))
	}
	r.scaled("setup_s", medianOf(setups), "s", fmt.Sprintf("median of n=%d partserved starts to /healthz", len(setups)))
	r.metric("peak_rss_mb", rss, "MB", "partserved peak RSS")
	r.scaled("op_p50_ms", medianOf(p50s), "ms", fmt.Sprintf("median over n=%d closed-loop segments of the segment's median read", len(p50s)))
	r.scaled("op_tail_ms", medianOf(tails), "ms", fmt.Sprintf("median over n=%d closed-loop segments of the segment's tail (p%.4g or higher)", len(tails), pct))
	r.scaled("gaston_ms", medianOf(gastons), "ms", fmt.Sprintf("median of n=%d whole-DB Gaston processes on the initial database", len(gastons)))
	r.timing("read_p50_ms", "read_tail_ms", "ms", summarize(lat), false)
	r.info("read_late_p50_ms", medianOf(late), "ms", "generator lateness: sent minus due")
	r.info("read_service_p50_ms", medianOf(service), "ms", "reply minus sent")
	r.info("read_max_rps", load.maxRPS, "1/s", fmt.Sprintf("highest of %v reads/s with read tail <= %v, no failures, no growing backlog", append([]float64{mainRate}, ladderRates...), readLimit))
	ul := make([]float64, len(load.folds))
	for i, f := range load.folds {
		ul[i] = ms(f.latency)
	}
	r.timing("update_p50_ms", "update_tail_ms", "ms", summarize(ul), false)
	return nil
}

// readLoad runs the closed segments, with gap between them, the open loop
// and then the ladder steps until one fails. During every phase a closed
// loop sends one single-op update per second. The open loop and each step
// pass when no read failed, the tail stays within readLimit and the
// generator was not falling behind at the end.
func (r *run) readLoad(s *served, rs *readSchedule, upd *updateSchedule, gap func() error) (readLoad, error) {
	var load readLoad
	next := 0
	var updErr error
	phase := func(ph readPhase) phaseResult {
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			tick := time.NewTicker(time.Second / updatesPerSec)
			defer tick.Stop()
			for updErr == nil && next < len(upd.reqs) {
				select {
				case <-stop:
					done <- nil
					return
				case <-tick.C:
				}
				fr, err := r.postUpdate(s, upd, next)
				r.attempted++
				if err != nil {
					done <- err
					return
				}
				next++
				load.folds = append(load.folds, fr)
			}
			done <- nil
		}()
		pr := r.runPhase(s, ph)
		close(stop)
		if err := <-done; err != nil {
			updErr = err
			r.failed++
			r.printf("  update failed: %v", err)
		}
		r.attempted += len(pr.reads)
		for _, rr := range pr.reads {
			if !rr.ok {
				r.failed++
			}
		}
		return pr
	}

	mi := rs.mainIndex()
	for i := 0; i < mi; i++ {
		if i > 0 {
			if err := gap(); err != nil {
				return load, err
			}
		}
		pr := phase(rs.phases[i])
		load.closed = append(load.closed, pr)
		sm := summarize(latencies(pr.reads))
		r.printf("  closed segment %d: n=%d p50=%.3fms tail(p%.4g)=%.3fms", i+1, sm.N, sm.P50, sm.TailPct, sm.Tail)
	}
	sum0, n0, herr := s.httpSeconds()
	load.main = phase(rs.phases[mi])
	if sum1, n1, err := s.httpSeconds(); herr == nil && err == nil {
		load.httpSum, load.httpN = sum1-sum0, n1-n0
	}
	if !r.ladderStep(mainRate, load.main) {
		return load, nil
	}
	load.maxRPS = mainRate
	for _, ph := range rs.phases[mi+1:] {
		pr := phase(ph)
		load.ladder = append(load.ladder, pr)
		if !r.ladderStep(ph.rate, pr) {
			break
		}
		load.maxRPS = ph.rate
	}
	return load, nil
}

// latencies lists each read's latency in ms.
func latencies(reads []readResult) []float64 {
	out := make([]float64, len(reads))
	for i, rr := range reads {
		out[i] = ms(rr.latency())
	}
	return out
}

// ladderStep reports one open-loop rate's reads and whether the rate was
// sustained.
func (r *run) ladderStep(rate float64, pr phaseResult) bool {
	fails := 0
	for _, rr := range pr.reads {
		if !rr.ok {
			fails++
		}
	}
	sm := summarize(latencies(pr.reads))
	pass := fails == 0 && sm.Tail <= ms(readLimit) && pr.lateEnd <= readLimit
	r.printf("  phase %6.0f reads/s: n=%d p50=%.3fms tail(p%.4g)=%.3fms failed=%d backlog_max=%d late_end=%.3fms pass=%v",
		rate, sm.N, sm.P50, sm.TailPct, sm.Tail, fails, pr.backlogMax, ms(pr.lateEnd), pass)
	return pass
}

// checkReads re-answers a spread sample of the contains reads of the
// closed segments and the open loop with query.Scan on the harness's copy
// of the database at the epoch each reply names.
func (r *run) checkReads(rs *readSchedule, load readLoad, upd *updateSchedule) {
	var arrivals []arrival
	for _, ph := range rs.phases[:rs.mainIndex()+1] {
		arrivals = append(arrivals, ph.arrivals...)
	}
	reads := append(load.closedReads(), load.main.reads...)
	type check struct {
		i     int
		epoch uint64
	}
	var answered []check
	for i, a := range arrivals {
		if a.kind != readTopK && reads[i].ok {
			answered = append(answered, check{i, reads[i].epoch})
		}
	}
	var picks []check
	every := max(1, len(answered)/checkedReads)
	for j := 0; j < len(answered); j += every {
		picks = append(picks, answered[j])
	}
	sort.Slice(picks, func(a, b int) bool { return picks[a].epoch < picks[b].epoch })
	var db graph.Database
	var dbEpoch uint64
	bad := 0
	for _, p := range picks {
		r.attempted++
		if p.epoch < 1 || int(p.epoch) > len(load.folds)+1 {
			bad++
			r.mismatch("read %d answered from epoch %d, which no update produced", p.i, p.epoch)
			continue
		}
		if db == nil || dbEpoch != p.epoch {
			db, dbEpoch = upd.dbAfter(int(p.epoch)-1), p.epoch
		}
		want := query.Scan(db, arrivals[p.i].g)
		if got := reads[p.i].tids; !equalInts(want, got) {
			bad++
			r.mismatch("read %d at epoch %d: server found %d graphs, scan finds %d", p.i, p.epoch, len(got), len(want))
		}
	}
	r.printf("  check: %d of %d sampled contains answers equal query.Scan at their epoch", len(picks)-bad, len(picks))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
