// Distributed: PartMiner's units mined by a fleet of workers over TCP.
// The paper notes PartMiner "is inherently parallel in nature" (§1): after
// partitioning, the k units are independent, so only the unit databases
// travel out and only the (small) frequent-pattern sets travel back.
//
// This example starts a coordinator and three workers inside the same
// process (stand-ins for `partworker -join ...` running on other
// machines), mines through them, and verifies the distributed result
// against a local run. It exits non-zero when the results differ or when
// no unit was mined on a worker, so it doubles as a check of the public
// cluster path.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"partminer"
	"partminer/internal/cluster"
)

func main() {
	coord := partminer.NewCoordinator(partminer.ClusterConfig{})
	defer coord.Close()
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	go coord.Serve(cl) //nolint:errcheck // returns when the listener closes

	// Stand-in worker fleet. On real deployments run
	// `partworker -join <coordinator>` on each machine instead.
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		w := cluster.NewWorker(fmt.Sprintf("worker-%d", i))
		w.Advertise = l.Addr().String()
		go w.Serve(l) //nolint:errcheck
		if err := w.Join(cl.Addr().String()); err != nil {
			log.Fatal(err)
		}
		defer w.Close()
	}
	fmt.Printf("coordinator %s, %d workers joined\n\n", cl.Addr(), coord.AliveMembers())

	db := partminer.Generate(partminer.GeneratorConfig{
		D: 500, T: 20, N: 20, L: 200, I: 5, Seed: 8,
	})
	sup := partminer.AbsoluteSupport(db, 0.04)
	const k = 6

	t0 := time.Now()
	dist, err := partminer.Mine(db, partminer.Options{
		MinSupport:       sup,
		K:                k,
		Parallel:         true, // units fan out across the fleet concurrently
		UnitMinerIndexed: coord.MineUnit,
	})
	if err != nil {
		log.Fatal(err)
	}
	distTime := time.Since(t0)
	if len(dist.Degraded) > 0 {
		log.Fatalf("degraded units: %v", dist.Degraded)
	}
	units := int64(len(dist.UnitPatterns))
	localMines := coord.Counters().LocalMines
	if localMines == units {
		log.Fatalf("no unit was mined on a worker (all %d fell back to the coordinator): %v",
			units, coord.Err())
	}

	t0 = time.Now()
	local, err := partminer.Mine(db, partminer.Options{MinSupport: sup, K: k})
	if err != nil {
		log.Fatal(err)
	}
	localTime := time.Since(t0)

	if !dist.Patterns.Equal(local.Patterns) {
		log.Fatal("distributed and local results differ")
	}
	fmt.Printf("distributed: %d patterns in %v (%d of %d units mined on workers)\n",
		len(dist.Patterns), distTime.Round(time.Millisecond), units-localMines, units)
	fmt.Printf("local:       %d patterns in %v\n",
		len(local.Patterns), localTime.Round(time.Millisecond))
	fmt.Println("\nresults identical (verified).")
}
