package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"partminer/internal/core"
	"partminer/internal/datagen"
	"partminer/internal/dfscode"
	"partminer/internal/gaston"
	"partminer/internal/graph"
	"partminer/internal/server"
)

// The database shape every workload uses: datagen's Table 1 defaults
// (T20 N20 L200 I5), mined at 4% support.
const (
	minsupFrac  = 0.04
	labelCount  = 20
	mineGraphs  = 5000
	serveGraphs = 1000
)

// Seed offsets keep the generators of one run independent of each other.
const (
	seedOps     = 0x0b5
	seedQueries = 0x9e7
	seedShuffle = 0x5f1
)

// refSeed is the datagen seed of each workload's database content: the
// reference databases ROADMAP's measurements use (datagen -d 1000 -seed 3
// and -d 5000 -seed 4). How costly a Table 1 database is to mine varies by
// about a fifth from one datagen seed to the next at 1000 graphs, which
// would drown the changes the benchmark exists to detect; the run's seed
// therefore varies the presentation of a fixed database and the traffic,
// not the database's content.
func refSeed(graphs int) int64 {
	if graphs == mineGraphs {
		return 4
	}
	return 3
}

// workloadDB is the reference database of the given size, presented in an
// order drawn from seed: graphs shuffled and every graph's vertices
// renumbered. The frequent patterns and their supports do not depend on
// the presentation; how partitioning splits the graphs does.
func workloadDB(seed int64, graphs int) graph.Database {
	db := genDB(refSeed(graphs), graphs)
	rng := rand.New(rand.NewSource(seed*1_000_003 + seedShuffle))
	rng.Shuffle(len(db), func(i, j int) { db[i], db[j] = db[j], db[i] })
	for i, g := range db {
		db[i] = renumber(rng, g)
		db[i].ID = i
	}
	return db
}

func genDB(seed int64, graphs int) graph.Database {
	return datagen.Generate(datagen.Config{D: graphs, T: 20, N: labelCount, L: 200, I: 5, Seed: seed})
}

func dbText(db graph.Database) []byte {
	var b bytes.Buffer
	if err := graph.WriteDatabase(&b, db); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return b.Bytes()
}

// fingerprint is the hex FNV-64a digest of an input's bytes.
func fingerprint(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func minSupport(db graph.Database) int { return core.AbsoluteSupport(db, minsupFrac) }

// updateSchedule is a precomputed stream of /v1/update requests, each op
// valid against the database as the earlier requests left it. changes[i]
// holds the graphs request i replaced, so the database at any epoch can
// be rebuilt for checking.
type updateSchedule struct {
	base    graph.Database
	reqs    [][]server.Op
	changes []map[int]*graph.Graph
}

// foldSizes is one block of request sizes: 80% carry 1 op, 15% carry 8
// and 5% carry 64. Every block of 20 requests holds exactly this mix in a
// seeded order, so the shares do not drift with how many requests a run
// gets through.
var foldSizes = []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 8, 8, 64}

// newUpdateSchedule draws n requests against base. With mixed the sizes
// follow foldSizes; otherwise every request carries one op.
func newUpdateSchedule(seed int64, base graph.Database, n int, mixed bool) *updateSchedule {
	rng := rand.New(rand.NewSource(seed*1_000_003 + seedOps))
	s := &updateSchedule{base: base}
	cur := append(graph.Database(nil), base...)
	var block []int
	for i := 0; i < n; i++ {
		size := 1
		if mixed {
			if len(block) == 0 {
				block = append([]int(nil), foldSizes...)
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			size, block = block[0], block[1:]
		}
		local := make(map[int]*graph.Graph)
		ops := make([]server.Op, 0, size)
		for j := 0; j < size; j++ {
			tid := rng.Intn(len(cur))
			g, ok := local[tid]
			if !ok {
				g = cur[tid].Clone()
				local[tid] = g
			}
			op := randomOp(rng, tid, g)
			if err := applyOp(g, op); err != nil {
				panic(fmt.Sprintf("generated op %+v is invalid: %v", op, err)) // randomOp draws only valid ops
			}
			ops = append(ops, op)
		}
		for tid, g := range local {
			cur[tid] = g
		}
		s.reqs = append(s.reqs, ops)
		s.changes = append(s.changes, local)
	}
	return s
}

// dbAfter is the database once the first n requests are applied: the
// state the server publishes as epoch n+1.
func (s *updateSchedule) dbAfter(n int) graph.Database {
	db := append(graph.Database(nil), s.base...)
	for _, ch := range s.changes[:n] {
		for tid, g := range ch {
			db[tid] = g
		}
	}
	return db
}

func (s *updateSchedule) fingerprint() string {
	b, err := json.Marshal(s.reqs)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return fingerprint(b)
}

var opKinds = []server.OpKind{server.OpRelabelVertex, server.OpRelabelEdge, server.OpAddEdge, server.OpAddVertex, server.OpRemoveEdge}

// randomOp draws an op kind uniformly among those g can take, then its
// arguments.
func randomOp(rng *rand.Rand, tid int, g *graph.Graph) server.Op {
	for {
		op := server.Op{Kind: opKinds[rng.Intn(len(opKinds))], TID: tid, Label: rng.Intn(labelCount)}
		nv := g.VertexCount()
		switch op.Kind {
		case server.OpRelabelVertex:
			if nv == 0 {
				continue
			}
			op.U = rng.Intn(nv)
		case server.OpRelabelEdge, server.OpRemoveEdge:
			if g.EdgeCount() == 0 {
				continue
			}
			op.U, op.V = randomEdge(rng, g)
			op.Label = 0
			if op.Kind == server.OpRelabelEdge {
				op.Label = rng.Intn(labelCount)
			}
		case server.OpAddEdge:
			found := false
			for try := 0; try < 16 && nv >= 2; try++ {
				op.U, op.V = rng.Intn(nv), rng.Intn(nv)
				if op.U != op.V && !g.HasEdge(op.U, op.V) {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		return op
	}
}

// randomEdge picks one edge of g uniformly.
func randomEdge(rng *rand.Rand, g *graph.Graph) (int, int) {
	k := rng.Intn(g.EdgeCount())
	for u, adj := range g.Adj {
		for _, e := range adj {
			if u < e.To {
				if k == 0 {
					return u, e.To
				}
				k--
			}
		}
	}
	panic("edge count out of step with adjacency")
}

// applyOp applies one op to g with the server's staging semantics,
// update-frequency bumps included (they steer partitioning).
func applyOp(g *graph.Graph, op server.Op) error {
	switch op.Kind {
	case server.OpAddVertex:
		v := g.AddVertex(op.Label)
		g.BumpUpdateFreq(v, 1)
	case server.OpAddEdge:
		if err := g.AddEdge(op.U, op.V, op.Label); err != nil {
			return err
		}
		g.SortAdjacency()
		g.BumpUpdateFreq(op.U, 1)
		g.BumpUpdateFreq(op.V, 1)
	case server.OpRemoveEdge:
		if !g.RemoveEdge(op.U, op.V) {
			return fmt.Errorf("no edge (%d,%d)", op.U, op.V)
		}
		g.BumpUpdateFreq(op.U, 1)
		g.BumpUpdateFreq(op.V, 1)
	case server.OpRelabelVertex:
		if op.U < 0 || op.U >= g.VertexCount() {
			return fmt.Errorf("vertex %d out of range", op.U)
		}
		g.Labels[op.U] = op.Label
		g.BumpUpdateFreq(op.U, 1)
	case server.OpRelabelEdge:
		if !g.SetEdgeLabel(op.U, op.V, op.Label) {
			return fmt.Errorf("no edge (%d,%d)", op.U, op.V)
		}
		g.BumpUpdateFreq(op.U, 1)
		g.BumpUpdateFreq(op.V, 1)
	default:
		return fmt.Errorf("unsupported op %q", op.Kind)
	}
	return nil
}

// Read shapes of the read-mixed workload.
type readKind int

const (
	readPlan  readKind = iota // a mined pattern, vertices renumbered
	readPool                  // one of a fixed pool of 64 ad-hoc subgraphs
	readFresh                 // a never-repeated ad-hoc subgraph
	readTopK                  // GET /v1/patterns?k=10
	readKinds
)

// readShare is the probability of each read shape.
var readShare = [readKinds]float64{0.38, 0.285, 0.285, 0.05}

type arrival struct {
	due  time.Duration // offset from the phase start
	kind readKind
	g    *graph.Graph // the query graph; nil for readTopK
	body []byte       // the /v1/contains body
}

// readPhase is one stretch of read arrivals: Poisson at rate for
// duration. A closed phase sends the same arrivals back to back instead.
type readPhase struct {
	rate     float64
	duration time.Duration
	closed   bool
	arrivals []arrival
}

// readSchedule holds every read arrival of a read-mixed run, computed up
// front from the seed (readPhases lays out the phases).
type readSchedule struct {
	phases []readPhase
}

const poolSize = 64

// newReadSchedule draws the arrivals of each phase. The
// plan shape samples patterns mined from base (whole-database Gaston at
// the workload's support, sizes up to the server's default plan bound of
// 8 edges); pool and fresh graphs are 3-6-edge connected subgraphs of
// database graphs that are not themselves frequent patterns.
func newReadSchedule(seed int64, base graph.Database, phases []readPhase) (*readSchedule, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + seedQueries))
	mined, err := gaston.MineContext(context.Background(), base, gaston.Options{MinSupport: minSupport(base)})
	if err != nil {
		return nil, fmt.Errorf("mine query patterns: %w", err)
	}
	keys := mined.Keys()
	sort.Strings(keys)
	var plans []*graph.Graph
	for _, k := range keys {
		if p := mined[k]; p.Size() <= 8 {
			plans = append(plans, p.Code.Graph())
		}
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	fresh := func() *graph.Graph {
		for {
			g := sampleSubgraph(rng, base, 3+rng.Intn(4))
			if k := dfscode.MinCode(g).Key(); !seen[k] {
				seen[k] = true
				return g
			}
		}
	}
	pool := make([]*graph.Graph, poolSize)
	for i := range pool {
		pool[i] = fresh()
	}

	s := &readSchedule{}
	for _, ph := range phases {
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / ph.rate * float64(time.Second))
			if t >= ph.duration {
				break
			}
			a := arrival{due: t, kind: pickKind(rng)}
			switch a.kind {
			case readPlan:
				a.g = renumber(rng, plans[rng.Intn(len(plans))])
			case readPool:
				a.g = pool[rng.Intn(len(pool))]
			case readFresh:
				a.g = fresh()
			}
			if a.g != nil {
				a.body = []byte(graph.Format(a.g))
			}
			ph.arrivals = append(ph.arrivals, a)
		}
		s.phases = append(s.phases, ph)
	}
	return s, nil
}

func pickKind(rng *rand.Rand) readKind {
	x := rng.Float64()
	for k := readKind(0); k < readKinds-1; k++ {
		if x < readShare[k] {
			return k
		}
		x -= readShare[k]
	}
	return readKinds - 1
}

func (s *readSchedule) fingerprint() string {
	h := fnv.New64a()
	for _, ph := range s.phases {
		fmt.Fprintf(h, "phase %g %d %v\n", ph.rate, ph.duration, ph.closed)
		for _, a := range ph.arrivals {
			fmt.Fprintf(h, "%d %d\n", a.due, a.kind)
			h.Write(a.body)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// renumber returns a copy of g with its vertex ids permuted, update
// frequencies moving with their vertices.
func renumber(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	perm := rng.Perm(g.VertexCount())
	inv := make([]int, len(perm))
	for old, nw := range perm {
		inv[nw] = old
	}
	out := graph.New(g.ID)
	for nw := range inv {
		out.AddVertex(g.Labels[inv[nw]])
	}
	for u, adj := range g.Adj {
		for _, e := range adj {
			if u < e.To {
				out.MustAddEdge(perm[u], perm[e.To], e.Label)
			}
		}
	}
	out.SortAdjacency()
	for old, nw := range perm {
		if f := g.UpdateFreq(old); f != 0 {
			out.BumpUpdateFreq(nw, f)
		}
	}
	return out
}

// sampleSubgraph grows a connected m-edge subgraph of a random database
// graph, one random frontier edge at a time.
func sampleSubgraph(rng *rand.Rand, db graph.Database, m int) *graph.Graph {
	for {
		g := db[rng.Intn(len(db))]
		if g.EdgeCount() < m {
			continue
		}
		start := rng.Intn(g.VertexCount())
		if g.Degree(start) == 0 {
			continue
		}
		ids := map[int]int{start: 0}
		order := []int{start}
		type edge struct{ u, v, l int }
		taken := map[[2]int]bool{}
		var edges []edge
		for len(edges) < m {
			var frontier []edge
			for _, u := range order {
				for _, e := range g.Adj[u] {
					k := [2]int{min(u, e.To), max(u, e.To)}
					if !taken[k] {
						frontier = append(frontier, edge{u, e.To, e.Label})
					}
				}
			}
			if len(frontier) == 0 {
				break
			}
			e := frontier[rng.Intn(len(frontier))]
			taken[[2]int{min(e.u, e.v), max(e.u, e.v)}] = true
			if _, ok := ids[e.v]; !ok {
				ids[e.v] = len(order)
				order = append(order, e.v)
			}
			edges = append(edges, e)
		}
		if len(edges) < m {
			continue
		}
		out := graph.New(0)
		for _, v := range order {
			out.AddVertex(g.Labels[v])
		}
		for _, e := range edges {
			out.MustAddEdge(ids[e.u], ids[e.v], e.l)
		}
		return out
	}
}
