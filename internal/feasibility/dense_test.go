package feasibility

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ringrobots/internal/config"
)

// randomObsPool adds n fresh random observations to c, in id order.
func randomObsPool(rng *rand.Rand, c *obsCache, pool []ObsKey, n int) []ObsKey {
	for target := len(pool) + n; len(pool) < target; {
		o := ObsKey{Lo: config.KeyOf(randomView(rng)), Hi: config.KeyOf(randomView(rng))}
		if int(c.idOf(o)) == len(pool) {
			pool = append(pool, o)
		}
	}
	return pool
}

// TestDecisionMatchesChain materializes random table chains one after
// another on one searcher and checks the dense view against the chain's
// own Table for every id of a growing pool: ids bound by an earlier
// chain (stale slots), ids bound now, and ids past the slot array,
// including ones no chain has bound yet.
func TestDecisionMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cache := newObsCache(8)
	w := newSearcher(&tierSearch{n: 8, k: 3, obs: cache})
	var pool []ObsKey
	var chains []*tableNode
	pastSlots := 0
	for trial := 0; trial < 2000; trial++ {
		if trial%50 == 0 {
			pool = randomObsPool(rng, cache, pool, 1+rng.Intn(40))
		}
		// Extend a root or an earlier chain, as siblings share prefixes.
		nd := &tableNode{}
		if len(chains) > 0 && rng.Intn(2) == 0 {
			nd = chains[rng.Intn(len(chains))]
		}
		bound := nd.toTable(cache)
		for i := rng.Intn(12); i > 0; i-- {
			o := pool[rng.Intn(len(pool))]
			if _, dup := bound[o]; dup {
				continue // a chain binds each observation once
			}
			d := Decision(rng.Intn(4))
			bound[o] = d
			nd = &tableNode{parent: nd, oid: cache.idOf(o), d: d}
		}
		chains = append(chains, nd)
		w.materialize(nd)
		want := nd.toTable(cache)
		for id := int32(0); int(id) < len(pool)+300; id++ {
			if int(id) >= len(w.obsSlots) {
				pastSlots++
			}
			got, ok := w.decision(id)
			var wantD Decision
			wantOK := false
			if int(id) < len(pool) {
				wantD, wantOK = want[cache.key(id)]
			}
			if ok != wantOK || (ok && got != wantD) {
				t.Fatalf("trial %d: decision(%d) = (%v, %v), chain table has (%v, %v)", trial, id, got, ok, wantD, wantOK)
			}
		}
	}
	if pastSlots == 0 {
		t.Fatal("the slot array covered every probed id: nothing past it was checked")
	}
}

// hashCredits is the credit store's reference: credits keyed by obsHash.
type hashCredits map[uint64]int64

func (r hashCredits) export() []ckptCredit {
	var out []ckptCredit
	for h, c := range r {
		if c != 0 {
			out = append(out, ckptCredit{hash: h, credit: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].hash < out[j].hash })
	return out
}

func checkCredits(t *testing.T, stage string, pr *pruneState, pool []ObsKey, ref hashCredits) {
	t.Helper()
	for id, o := range pool {
		if got, want := pr.creditOf(int32(id)), ref[obsHash(o)]; got != want {
			t.Fatalf("%s: creditOf(%d) = %d, reference %d", stage, id, got, want)
		}
	}
	got, _ := pr.exportState()
	want := ref.export()
	if len(got) != len(want) {
		t.Fatalf("%s: exported %d credits, reference %d", stage, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: export[%d] = %+v, reference %+v", stage, i, got[i], want[i])
		}
	}
}

// TestCreditStoreMatchesHashReference drives the per-id credit store
// through a resumed tier — imported credits, some for observations the
// solve has not numbered yet, then fresh credits on top — and a tier
// reset, checking reads and the checkpoint export against credits
// keyed by obsHash, the form checkpoints carry.
func TestCreditStoreMatchesHashReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		cache := newObsCache(8)
		pool := randomObsPool(rng, cache, nil, 1+rng.Intn(600))
		pr := newPruneState(cache)
		ref := hashCredits{}
		for _, o := range pool {
			if rng.Intn(3) == 0 {
				ref[obsHash(o)] = 1 + rng.Int63n(50)
			}
		}
		for i := rng.Intn(5); i > 0; i-- {
			ref[rng.Uint64()] = 1 + rng.Int63n(50) // an observation not yet numbered
		}
		pr.importState(ref.export(), nil)
		checkCredits(t, "imported", pr, pool, ref)
		add := func() {
			for i := rng.Intn(2000); i > 0; i-- {
				id := rng.Intn(len(pool))
				pr.addCredit(int32(id))
				ref[obsHash(pool[id])]++
			}
		}
		add()
		checkCredits(t, "imported+added", pr, pool, ref)
		pr.resetCredits()
		ref = hashCredits{}
		checkCredits(t, "reset", pr, pool, ref)
		add()
		checkCredits(t, "reset+added", pr, pool, ref)
	}
}

// TestCreditStoreConcurrent adds and reads credits from several
// goroutines over ids spanning several directory chunks, so chunks are
// added while other goroutines read and increment. Run it under -race.
func TestCreditStoreConcurrent(t *testing.T) {
	const goroutines, rounds = 4, 3
	rng := rand.New(rand.NewSource(4))
	cache := newObsCache(8)
	pool := randomObsPool(rng, cache, nil, 5<<obsChunkBits+17)
	pr := newPruneState(cache)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			order := rand.New(rand.NewSource(seed)).Perm(len(pool))
			for r := 0; r < rounds; r++ {
				for _, id := range order {
					before := pr.creditOf(int32(id))
					pr.addCredit(int32(id))
					if after := pr.creditOf(int32(id)); after <= before {
						t.Errorf("creditOf(%d) went from %d to %d across an addCredit", id, before, after)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	ref := hashCredits{}
	for _, o := range pool {
		ref[obsHash(o)] += goroutines * rounds
	}
	checkCredits(t, "concurrent", pr, pool, ref)
}
