package feasibility

import (
	"math/bits"
	"math/rand"
	"testing"

	"ringrobots/internal/config"
)

// refWaiter is a waiter as registered before observations had dense
// ids: the full key instead of its id.
type refWaiter struct {
	obs   ObsKey
	legal uint8
}

// selectNeededReference is the branch selection as it stood when
// waiters carried keys: a linear dedup over the waiter list,
// O(waiters × distinct observations), with the table checked per
// waiter. With pr == nil it is the NoPrune oracle's choice, the fewest
// legal decisions, then ObsKey order. Credits are read through the ids
// pr's obsCache assigned. selectNeeded must pick the same observation on
// every input.
func selectNeededReference(waiters []refWaiter, table Table, pr *pruneState) (ObsKey, uint8) {
	if pr == nil {
		var best ObsKey
		var bestMask uint8
		bestOptions := 1 << 30
		for i := range waiters {
			e := &waiters[i]
			if _, defined := table[e.obs]; defined {
				continue
			}
			opts := bits.OnesCount8(e.legal)
			if opts < bestOptions || (opts == bestOptions && e.obs.Less(best)) {
				best = e.obs
				bestMask = e.legal
				bestOptions = opts
			}
		}
		return best, bestMask
	}
	type agg struct {
		obs   ObsKey
		count int32
		legal uint8
	}
	var aggs []agg
	for i := range waiters {
		e := &waiters[i]
		if _, defined := table[e.obs]; defined {
			continue
		}
		found := false
		for j := range aggs {
			if aggs[j].obs == e.obs {
				aggs[j].count++
				found = true
				break
			}
		}
		if !found {
			aggs = append(aggs, agg{obs: e.obs, count: 1, legal: e.legal})
		}
	}
	var best ObsKey
	var bestMask uint8
	bestScore := int64(-1)
	bestOpts := 1 << 30
	for j := range aggs {
		a := &aggs[j]
		score := int64(a.count) + pruneCreditWeight*pr.creditOf(pr.obs.idOf(a.obs))
		opts := bits.OnesCount8(a.legal)
		if score > bestScore || (score == bestScore && (opts < bestOpts || (opts == bestOpts && a.obs.Less(best)))) {
			best, bestMask, bestScore, bestOpts = a.obs, a.legal, score, opts
		}
	}
	return best, bestMask
}

// randomView returns a random interval sequence; long ones with large
// entries overflow the packed key word and take the string fallback.
func randomView(rng *rand.Rand) config.View {
	v := make(config.View, 1+rng.Intn(4))
	if rng.Intn(8) == 0 {
		v = make(config.View, 12+rng.Intn(4))
		for i := range v {
			v[i] = rng.Intn(1 << 12)
		}
		return v
	}
	for i := range v {
		v[i] = rng.Intn(4)
	}
	return v
}

// TestSelectNeededMatchesReference compares the one-pass aggregation
// with the linear-dedup reference on randomized waiter registries that
// repeat observations, register observations the table already binds,
// and tie on score and on fan-out. One searcher and one id cache serve
// every trial, so stale epoch stamps from earlier trials are exercised
// too.
func TestSelectNeededMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cache := newObsCache(8)
	ts := &tierSearch{n: 8, k: 3, obs: cache}
	w := newSearcher(ts)
	// Fan-out 2, 2, 3 and 4: ties on the number of legal decisions are
	// common.
	masks := []uint8{
		1<<DStay | 1<<DTowardLo,
		1<<DStay | 1<<DTowardHi,
		1<<DStay | 1<<DTowardLo | 1<<DTowardHi,
		1<<DStay | 1<<DTowardLo | 1<<DTowardHi | 1<<DEither,
	}
	for trial := 0; trial < 3000; trial++ {
		var pool []ObsKey
		legal := make(map[ObsKey]uint8)
		for len(pool) < 1+rng.Intn(12) {
			o := ObsKey{Lo: config.KeyOf(randomView(rng)), Hi: config.KeyOf(randomView(rng))}
			if _, dup := legal[o]; dup {
				continue
			}
			legal[o] = masks[rng.Intn(len(masks))]
			pool = append(pool, o)
		}
		var pr *pruneState
		if trial%4 != 0 {
			pr = newPruneState(cache)
			for _, o := range pool {
				for c := rng.Intn(3); c > 0; c-- {
					pr.addCredit(cache.idOf(o))
				}
			}
		}
		ts.prune = pr
		nd := &tableNode{}
		table := make(Table)
		for _, o := range pool {
			if rng.Intn(4) == 0 {
				d := Decision(rng.Intn(4))
				nd = &tableNode{parent: nd, oid: cache.idOf(o), d: d}
				table[o] = d
			}
		}
		w.materialize(nd)
		var ref []refWaiter
		w.waiters = w.waiters[:0]
		for i := rng.Intn(30); i > 0; i-- {
			o := pool[rng.Intn(len(pool))]
			ref = append(ref, refWaiter{obs: o, legal: legal[o]})
			w.waiters = append(w.waiters, waiter{oid: cache.idOf(o), id: int32(rng.Intn(100)), legal: legal[o]})
		}
		wantObs, wantMask := selectNeededReference(ref, table, pr)
		gotID, gotMask := w.selectNeeded()
		if gotMask != wantMask || (wantMask != 0 && cache.key(gotID) != wantObs) {
			t.Fatalf("trial %d (prune=%v): selectNeeded = (%v, %b), reference = (%v, %b)",
				trial, pr != nil, cache.key(gotID), gotMask, wantObs, wantMask)
		}
	}
}

// counterRow is one pinned single-worker solve: every search counter
// the instance produces.
type counterRow struct {
	impossible                   bool
	tier, tables                 int
	interned, reexpanded, reused int64
	memo, dominated, units       int64
	survivor                     int
}

// counterCase is a pinned solve's instance and options.
type counterCase struct {
	name    string
	n, k    int
	noPrune bool
	tiers   []int
	cycle   int
	slow    bool
	want    counterRow
}

var pinnedCounters = []counterCase{
	{"7,4", 7, 4, false, nil, 0, false, counterRow{true, 0, 14, 56, 17, 13, 0, 10, 608, 0}},
	{"7,4/prune=off", 7, 4, true, nil, 0, false, counterRow{true, 0, 45, 180, 48, 44, 0, 0, 736, 0}},
	{"8,5", 8, 5, false, nil, 0, false, counterRow{true, 0, 116, 580, 120, 115, 0, 34, 2234, 0}},
	{"8,5/prune=off", 8, 5, true, nil, 0, false, counterRow{true, 0, 547, 2735, 551, 546, 0, 0, 6931, 0}},
	{"9,4", 9, 4, false, nil, 0, false, counterRow{true, 0, 89, 890, 98, 88, 0, 48, 652, 0}},
	{"9,4/prune=off", 9, 4, true, nil, 0, true, counterRow{true, 0, 141366, 1413660, 141375, 141365, 0, 0, 4677180, 0}},
	{"9,5", 9, 5, false, nil, 0, false, counterRow{false, 2, 1497, 23932, 3869, 1495, 0, 283, 72340, 38}},
	{"9,5/prune=off", 9, 5, true, nil, 0, true, counterRow{false, 2, 53957, 2075574, 247913, 53955, 0, 0, 1531789, 38}},
	{"9,5/tiers=0,1,2", 9, 5, false, []int{0, 1, 2}, 0, false, counterRow{false, 2, 2205, 36314, 5795, 2202, 0, 431, 118386, 38}},
	{"9,5/tiers=0,1,2/prune=off", 9, 5, true, []int{0, 1, 2}, 0, true, counterRow{false, 2, 139306, 4415794, 531087, 139303, 0, 0, 4471306, 38}},
	{"10,3/cycle=12", 10, 3, false, nil, 12, false, counterRow{true, 0, 9598, 76784, 9605, 9597, 0, 2023, 94068, 0}},
	{"11,6", 11, 6, false, nil, 0, false, counterRow{true, 0, 11000, 286000, 11025, 10999, 0, 4809, 560658, 0}},
	{"12,5/cycle=8", 12, 5, false, nil, 8, false, counterRow{false, 2, 3739, 179939, 9033, 3737, 0, 1188, 42534, 170}},
	{"10,7", 10, 7, false, nil, 0, false, counterRow{true, 2, 242, 2878, 541, 240, 0, 69, 8016, 0}},
}

// pinnedCounterCase returns the pinned row called name.
func pinnedCounterCase(t *testing.T, name string) counterCase {
	t.Helper()
	for _, tc := range pinnedCounters {
		if tc.name == name {
			return tc
		}
	}
	t.Fatalf("no pinned counter row %q", name)
	return counterCase{}
}

// run solves the case with one worker and returns its counters; a
// solve error comes back as a zero row, which no pinned row equals.
func (tc counterCase) run() counterRow {
	s := NewSolver(tc.n, tc.k)
	s.Workers = 1
	s.NoPrune = tc.noPrune
	if tc.tiers != nil {
		s.PendingTiers = tc.tiers
	}
	if tc.cycle != 0 {
		s.MaxCycleLen = tc.cycle
	}
	res, err := s.Solve()
	if err != nil {
		return counterRow{}
	}
	return counterRow{res.Impossible, res.Tier, res.TablesExplored, res.StatesInterned, res.StatesReexpanded,
		res.BranchesReused, res.TablesMemoHit, res.BranchesDominated, res.ExpansionUnits, len(res.SurvivorTable)}
}

// TestSearchCountersPinned pins every counter of single-worker solves:
// any drift here means the explored tree changed.
func TestSearchCountersPinned(t *testing.T) {
	for _, tc := range pinnedCounters {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("prune=off oracle of a deep case skipped in -short mode")
			}
			if got := tc.run(); got != tc.want {
				t.Errorf("counters\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
