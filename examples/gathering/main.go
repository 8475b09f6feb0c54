// Gathering under adversity: rendezvous against a hostile scheduler.
//
// Five delivery drones parked on a circular taxiway must converge on a
// single bay. They cannot talk, have no ids, no memory and no compass,
// and an adversarial dispatcher delays their actions arbitrarily —
// drones move on positions observed long ago. The example runs the
// paper's gathering algorithm (Theorem 8) two ways from the same rigid
// start: atomic round-robin scheduling and a pending-move-holding random
// adversary.
//
//	go run ./examples/gathering
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ringrobots"
)

const (
	n = 15
	k = 5
)

func main() {
	rng := rand.New(rand.NewSource(99))
	start, err := ringrobots.RandomRigidConfig(rng, n, k)
	if err != nil {
		log.Fatal(err)
	}
	alg, err := ringrobots.NewAlgorithm(ringrobots.Gathering, n, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("taxiway with %d bays, %d drones, start %v\n", n, k, start.Nodes())

	// 1. Atomic round-robin (the verification baseline).
	w1, err := ringrobots.NewWorld(ringrobots.Gathering, start)
	if err != nil {
		log.Fatal(err)
	}
	r1 := ringrobots.NewRunner(w1, alg)
	if _, err := r1.RunUntil((*ringrobots.World).Gathered, 200_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round-robin:        gathered at bay %2d after %3d moves\n", w1.Position(0), r1.Moves())

	// 2. Fully asynchronous adversary holding moves pending 40%% of the
	// time: drones execute decisions computed on stale observations.
	w2, err := ringrobots.NewWorld(ringrobots.Gathering, start)
	if err != nil {
		log.Fatal(err)
	}
	r2 := ringrobots.NewAsyncRunner(w2, alg, ringrobots.NewRandomAsyncAdversary(5, 0.4))
	if _, err := r2.RunUntil((*ringrobots.World).Gathered, 2_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async adversary:    gathered at bay %2d after %3d moves (%d actions)\n",
		w2.Position(0), r2.Moves(), r2.Steps())

	if !w1.Gathered() || !w2.Gathered() {
		log.Fatal("some execution failed to gather")
	}
	fmt.Println("both executions gathered — the algorithm is scheduler-independent")
}
