package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"partminer/internal/core"
	"partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/gspan"
	"partminer/internal/pattern"
)

// edgeDB is a one-graph database holding a single labeled edge.
func edgeDB() graph.Database {
	g := graph.New(0)
	g.AddVertex(0)
	g.AddVertex(1)
	g.MustAddEdge(0, 1, 2)
	return graph.Database{g}
}

func encodeDB(t *testing.T, db graph.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// captureShard stands in for a worker's Shard service: it records the
// MineUnitArgs it receives and replies with an empty pattern set, after
// waiting for release when that is non-nil.
type captureShard struct {
	mu      sync.Mutex
	args    []MineUnitArgs
	release chan struct{}
}

func (s *captureShard) MineUnit(args MineUnitArgs, reply *MineUnitReply) error {
	s.mu.Lock()
	s.args = append(s.args, args)
	s.mu.Unlock()
	if s.release != nil {
		<-s.release
	}
	var buf bytes.Buffer
	if err := pattern.WriteSet(&buf, make(pattern.Set)); err != nil {
		return err
	}
	reply.SetText = buf.Bytes()
	return nil
}

// coordinatorWithShard returns a coordinator whose only member serves
// svc as its Shard service, so tests can inspect the wire.
func coordinatorWithShard(t *testing.T, svc any) *Coordinator {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := rpc.NewServer()
	if err := srv.RegisterName("Shard", svc); err != nil {
		t.Fatal(err)
	}
	go srv.Accept(l)
	coord := NewCoordinator(Config{HeartbeatInterval: time.Minute})
	t.Cleanup(coord.Close)
	if err := coord.register(RegisterArgs{ID: "capture", Addr: l.Addr().String()}, &RegisterReply{}); err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestCoordinatorShipsDeadline: the coordinator's context deadline and
// MaxEdges travel in MineUnitArgs, so the worker bounds its own mine.
func TestCoordinatorShipsDeadline(t *testing.T) {
	shard := &captureShard{}
	coord := coordinatorWithShard(t, shard)
	dl := time.Now().Add(30 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	if _, err := coord.MineUnit(ctx, 0, edgeDB(), 1, 5); err != nil {
		t.Fatal(err)
	}
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if len(shard.args) != 1 {
		t.Fatalf("worker saw %d calls; want 1", len(shard.args))
	}
	if got, want := shard.args[0].DeadlineUnixMilli, dl.UnixMilli(); got != want {
		t.Errorf("shipped deadline = %d; want %d", got, want)
	}
	if shard.args[0].MaxEdges != 5 {
		t.Errorf("shipped MaxEdges = %d; want 5", shard.args[0].MaxEdges)
	}
}

// TestCoordinatorCancellationMidRPC: with the worker stuck mid-call,
// the coordinator's deadline abandons the in-flight RPC promptly and
// yields an empty, non-nil set instead of waiting the worker out.
func TestCoordinatorCancellationMidRPC(t *testing.T) {
	shard := &captureShard{release: make(chan struct{})}
	defer close(shard.release)
	coord := coordinatorWithShard(t, shard)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	set, err := coord.MineUnit(ctx, 0, edgeDB(), 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	if set == nil || len(set) != 0 {
		t.Fatalf("cancelled set = %v; want empty non-nil", set)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the call was not abandoned", elapsed)
	}
}

// TestWorkerRefusesExpiredDeadline: a shipped deadline that has already
// passed fails the mine with context.DeadlineExceeded, and the unit does
// not count as mined.
func TestWorkerRefusesExpiredDeadline(t *testing.T) {
	w := NewWorker("w")
	args := MineUnitArgs{
		UnitKey:           UnitKey(0),
		DBText:            encodeDB(t, edgeDB()),
		MinSupport:        1,
		DeadlineUnixMilli: time.Now().Add(-time.Second).UnixMilli(),
	}
	err := w.mineUnit(args, &MineUnitReply{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	if w.Mined.Load() != 0 {
		t.Errorf("expired mine must not count as mined")
	}
}

// TestWorkerCountsUnits: a mined unit is counted and replied with its
// pattern set; an unparsable unit database is an error and not counted.
func TestWorkerCountsUnits(t *testing.T) {
	w := NewWorker("w")
	var reply MineUnitReply
	if err := w.mineUnit(MineUnitArgs{DBText: encodeDB(t, edgeDB()), MinSupport: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	if w.Mined.Load() != 1 {
		t.Errorf("Mined = %d; want 1", w.Mined.Load())
	}
	if len(reply.SetText) == 0 {
		t.Error("empty reply")
	}
	if err := w.mineUnit(MineUnitArgs{DBText: []byte("garbage")}, &reply); err == nil {
		t.Error("garbage database should error")
	}
	if w.Mined.Load() != 1 {
		t.Errorf("a failed mine must not count: Mined = %d", w.Mined.Load())
	}
}

// TestConnRedialsDroppedSession: the worker is healthy but its TCP
// session drops. The next call redials inside the same call, counts
// remote.redial, and neither fails over nor records an error.
func TestConnRedialsDroppedSession(t *testing.T) {
	tc := startCluster(t, 1, Config{HeartbeatInterval: time.Minute})
	col := &exec.Collector{}
	tc.coord.SetObserver(col)
	ctx := context.Background()
	db := testDB(2)
	if _, err := tc.coord.MineUnit(ctx, 0, db, 2, 3); err != nil {
		t.Fatal(err)
	}
	tc.workers[0].Sever() // drop the live session; the listener still accepts

	set, err := tc.coord.MineUnit(ctx, 1, db, 2, 3)
	if err != nil {
		t.Fatalf("redial should make the drop invisible: %v", err)
	}
	if len(set) == 0 {
		t.Error("expected mined patterns after redial")
	}
	if col.Counters()["remote.redial"] == 0 {
		t.Error("expected remote.redial > 0")
	}
	if err := tc.coord.Err(); err != nil {
		t.Errorf("transparent redial must not record errors: %v", err)
	}
	if ctrs := tc.coord.Counters(); ctrs.Reassignments != 0 || ctrs.LocalMines != 0 {
		t.Errorf("redial must not fail over: %+v", ctrs)
	}
}

// TestClusterFreeTreeEngine: a cluster mine on Gaston's free-tree engine
// equals gSpan on the whole database.
func TestClusterFreeTreeEngine(t *testing.T) {
	tc := startCluster(t, 2, Config{FreeTreeEngine: true})
	db := graph.RandomDatabase(rand.New(rand.NewSource(4)), 8, 5, 7, 2, 2)
	opts := core.Options{MinSupport: 2, K: 2, MaxEdges: 4, UnitMinerIndexed: tc.coord.MineUnit}
	res, err := core.PartMiner(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 || tc.coord.Counters().LocalMines != 0 {
		t.Fatalf("healthy fleet degraded (%v) or mined locally", res.Degraded)
	}
	want := gspan.Mine(db, gspan.Options{MinSupport: 2, MaxEdges: 4})
	if !res.Patterns.Equal(want) {
		t.Fatalf("free-tree cluster diff: %v", res.Patterns.Diff(want))
	}
}

// TestClusterDeadFleetMinesLocally: with every worker dead before the
// monitor notices, each unit fails over past all of them and falls back
// to a local mine. The run stays exact and undegraded, and
// Coordinator.Err names every worker that failed.
func TestClusterDeadFleetMinesLocally(t *testing.T) {
	tc := startCluster(t, 2, Config{HeartbeatInterval: time.Minute})
	tc.kill(0)
	tc.kill(1)
	const seed = 6
	db := testDB(seed)
	base := core.Options{MinSupport: 2, K: 2, MaxEdges: 3}
	want, err := core.PartMiner(db, base)
	if err != nil {
		t.Fatal(err)
	}
	clustered := base
	clustered.UnitMinerIndexed = tc.coord.MineUnit
	got, err := core.PartMiner(db, clustered)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Degraded) != 0 {
		t.Fatalf("local fallback must not degrade: %v", got.Degraded)
	}
	assertBitForBit(t, seed, got, want)
	if n := tc.coord.Counters().LocalMines; n != 2 {
		t.Errorf("local mines = %d; want 2", n)
	}
	joined := tc.coord.Err()
	if joined == nil {
		t.Fatal("expected recorded worker errors")
	}
	for _, w := range tc.workers {
		if !strings.Contains(joined.Error(), w.ID) {
			t.Errorf("recorded errors should name worker %s: %v", w.ID, joined)
		}
	}
}
