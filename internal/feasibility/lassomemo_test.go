package feasibility

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ringrobots/internal/ring"
)

// lassoCase is one candidate loop of an analyzed state graph: its
// edges, the state it closes at, and the head's state, stayable mask
// and stem contamination as the check will read them.
type lassoCase struct {
	head     int32
	cycle    []edge
	cont     uint64
	st       state
	stayable uint64
}

// collectLoops analyzes the (8,5) fixture table at pending tier 2 and
// returns every loop of at most maxLen non-stay edges through each
// state, closing at its first state, as the lasso hunt would assemble
// them.
func collectLoops(t *testing.T, maxLen int) (*searcher, []lassoCase) {
	t.Helper()
	s := NewSolver(8, 5)
	ts := &tierSearch{
		n:             s.N,
		k:             s.K,
		pendingLimit:  2,
		maxExpansions: int64(s.MaxExpansions),
		maxCycleLen:   s.MaxCycleLen,
		quotient:      true,
		starts:        s.initialStates(),
		obs:           newObsCache(s.N),
		queue:         newWorkQueue(),
	}
	w := newSearcher(ts)
	bindTable(w, fixtureTable())
	if _, _, _, err := w.analyze(); err != nil {
		t.Fatal(err)
	}
	var loops []lassoCase
	var path []edge
	var walk func(head, cur int32)
	walk = func(head, cur int32) {
		ni := w.info[cur]
		for x := ni.edgeOff; x < ni.edgeOff+ni.edgeLen; x++ {
			e := w.edges[x]
			if e.stay {
				continue
			}
			path = append(path, e)
			if e.to == head {
				loops = append(loops, lassoCase{head, append([]edge(nil), path...), w.cont[head], w.states[head], w.info[head].stayable})
			} else if len(path) < maxLen {
				walk(head, e.to)
			}
			path = path[:len(path)-1]
		}
	}
	for id := int32(0); int(id) < len(w.states); id++ {
		walk(id, id)
	}
	return w, loops
}

// variants returns c under other stem contaminations, and with one
// word the check reads perturbed at a time: the head's occupancy,
// pending moves and stayable mask, and each edge's activations, moves
// and isometry.
// A key that left out any of them would answer some variant with
// another's verdict or unit count.
func (c lassoCase) variants(n int) []lassoCase {
	vs := []lassoCase{c}
	with := func(f func(v *lassoCase)) {
		v := c
		v.cycle = append([]edge(nil), c.cycle...)
		f(&v)
		vs = append(vs, v)
	}
	for cm := uint64(0); cm < 1<<uint(n); cm += 29 {
		with(func(v *lassoCase) { v.cont = cm })
	}
	for u := 0; u < n; u++ {
		bit := uint64(1) << uint(u)
		if _, p := c.st.pendingAt(u); !p {
			with(func(v *lassoCase) { v.st.occupied ^= bit })
		}
		if c.st.occupiedAt(u) {
			if _, p := c.st.pendingAt(u); !p {
				with(func(v *lassoCase) { v.st = v.st.withPending(u, ring.CW) })
			}
			with(func(v *lassoCase) { v.stayable ^= bit })
		}
		for i := range c.cycle {
			with(func(v *lassoCase) { v.cycle[i].acts ^= bit })
			with(func(v *lassoCase) { v.cycle[i].movesCW ^= bit })
			with(func(v *lassoCase) { v.cycle[i].movesCCW ^= bit })
			with(func(v *lassoCase) { v.cycle[i].iso = isoOf(u, !v.cycle[i].iso.refl()) })
		}
	}
	return vs
}

// load makes c the searcher's candidate loop. The head's words stay
// written after the check; every case sets its own, and a loop passing
// through another case's head reads the same words cached or not.
func (c lassoCase) load(w *searcher) {
	w.cycle = append(w.cycle[:0], c.cycle...)
	w.cont[c.head] = c.cont
	w.states[c.head] = c.st
	w.info[c.head].stayable = c.stayable
}

// cachedCheck runs the memoized check on c from an empty local unit
// count and returns its verdict and the units it charged.
func cachedCheck(t *testing.T, w *searcher, c lassoCase) (bool, int32) {
	t.Helper()
	c.load(w)
	w.local = 0
	bad, err := w.cycleIsFairAndBad(c.head)
	if err != nil {
		t.Fatal(err)
	}
	return bad, int32(w.local)
}

// probe reports whether w's memo already holds c.
func probe(w *searcher, c lassoCase) bool {
	c.load(w)
	key, ok := w.lassoKey(c.head)
	if !ok {
		return false
	}
	_, hit := w.memo.lookup(key, lassoHash(key))
	return hit
}

// TestLassoMemoMatchesCheck runs the memoized lasso check on real loops
// of the (8,5) fixture graph and on their variants: a repeat must hit,
// a second loop hashed into the same slot must miss and evict the
// first, and every answer and charged unit count must equal the
// uncached check's.
func TestLassoMemoMatchesCheck(t *testing.T) {
	w, loops := collectLoops(t, 5)
	if len(loops) == 0 {
		t.Fatal("fixture graph has no loops")
	}
	w.memo = new(lassoMemo)
	type ref struct {
		bad   bool
		units int32
	}
	reference := func(c lassoCase) ref {
		c.load(w)
		bad, units := w.lassoVerdict(c.head)
		return ref{bad, units}
	}
	verdicts := map[bool]int{}
	type slotted struct {
		c   lassoCase
		key string
	}
	bySlot := map[uint64]slotted{}
	var a, b lassoCase
	found := false
	for _, l := range loops {
		for _, c := range l.variants(w.n) {
			want := reference(c)
			verdicts[want.bad]++
			for pass := 0; pass < 2; pass++ {
				if bad, units := cachedCheck(t, w, c); (ref{bad, units}) != want {
					t.Fatalf("pass %d: memoized check = (%v, %d units), uncached = %+v", pass, bad, units, want)
				}
			}
			c.load(w)
			key, _ := w.lassoKey(c.head)
			slot := lassoHash(key) & (lassoMemoSlots - 1)
			if prev, ok := bySlot[slot]; ok && !found && prev.key != fmt.Sprint(key) {
				a, b, found = prev.c, c, true
			}
			bySlot[slot] = slotted{c, fmt.Sprint(key)}
		}
		// The same words read on a ring one node larger, as a pooled
		// memo may see them in a later solve, are another input.
		w.n++
		want := reference(l)
		if bad, units := cachedCheck(t, w, l); (ref{bad, units}) != want {
			t.Fatalf("n=%d: memoized check = (%v, %d units), uncached = %+v", w.n, bad, units, want)
		}
		w.n--
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("loops cover only one verdict: %v", verdicts)
	}
	if !found {
		t.Fatal("no two loops share a slot")
	}
	t.Logf("%d loops, verdicts %v", len(loops), verdicts)

	slotOf := func(c lassoCase) uint64 {
		c.load(w)
		key, _ := w.lassoKey(c.head)
		return lassoHash(key) & (lassoMemoSlots - 1)
	}
	if slotOf(a) != slotOf(b) {
		t.Fatal("colliding loops no longer share a slot")
	}
	w.memo = new(lassoMemo)
	steps := []struct {
		c       lassoCase
		wantHit bool
	}{{a, false}, {a, true}, {b, false}, {a, false}}
	for i, st := range steps {
		if hit := probe(w, st.c); hit != st.wantHit {
			t.Fatalf("step %d: memo hit = %v, want %v", i, hit, st.wantHit)
		}
		want := reference(st.c)
		if bad, units := cachedCheck(t, w, st.c); (ref{bad, units}) != want {
			t.Fatalf("step %d: memoized check = (%v, %d units), uncached = %+v", i, bad, units, want)
		}
	}

	// A hit replays its units through the budget: one unit short of a
	// flush, an exhausted budget trips on the first unit, cached or not.
	// The budget only trips once the run has finished a branch, so mark
	// one done.
	w.ts.maxExpansions = 0
	w.ts.done.Store(1)
	w.memo = new(lassoMemo)
	for i, wantHit := range []bool{false, true} {
		if hit := probe(w, a); hit != wantHit {
			t.Fatalf("budget pass %d: memo hit = %v, want %v", i, hit, wantHit)
		}
		a.load(w)
		w.local = expansionBatch - 1
		before := w.ts.expansions.Load()
		if _, err := w.cycleIsFairAndBad(a.head); !errors.Is(err, ErrBudget) {
			t.Fatalf("budget pass %d: err = %v, want ErrBudget", i, err)
		}
		if got := w.ts.expansions.Load() - before; got != expansionBatch {
			t.Fatalf("budget pass %d: flushed %d units, want %d", i, got, expansionBatch)
		}
	}
}

// TestLassoMemoPoolSharedAcrossSolves runs pinned single-worker solves
// concurrently, so their workers take and return lasso memos through
// the shared pool while the other solves fill them, and a NoQuotient
// solve (identity isometries, different graphs) mixes its entries in.
// Each solve must reproduce its TestSearchCountersPinned row, and the
// NoQuotient solve its own solo run.
func TestLassoMemoPoolSharedAcrossSolves(t *testing.T) {
	noQuotient := func() (Result, error) {
		s := NewSolver(8, 5)
		s.Workers = 1
		s.NoQuotient = true
		return s.Solve()
	}
	solo, err := noQuotient()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, name := range []string{"7,4", "8,5", "9,4", "11,6"} {
			tc := pinnedCounterCase(t, name)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := tc.run(); got != tc.want {
					t.Errorf("%s: counters\n got %+v\nwant %+v", tc.name, got, tc.want)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := noQuotient(); err != nil || !reflect.DeepEqual(got, solo) {
				t.Errorf("NoQuotient (8,5): concurrent result\n %+v (err %v)\nsolo\n %+v", got, err, solo)
			}
		}()
	}
	wg.Wait()
}

// TestLassoMemoRejectsOverwrittenKey forces two keys that differ only
// in their first word onto one hash, and then overwrites that one word
// of the first key's arena copy: the first key's slot now points at
// words equal to the second key, and only the arena's age check keeps
// it from answering for it.
func TestLassoMemoRejectsOverwrittenKey(t *testing.T) {
	m := new(lassoMemo)
	a := []uint64{1, 2, 3, 4, 5}
	b := []uint64{6, 2, 3, 4, 5}
	const h = 5
	s, _ := m.lookup(a, h)
	m.store(s, a, h, true, 3)
	if _, hit := m.lookup(a, h); !hit {
		t.Fatal("stored key misses")
	}
	if _, hit := m.lookup(b, h); hit {
		t.Fatal("hash match alone answered")
	}
	for m.head < lassoMemoWords {
		filler := []uint64{m.head}
		s, _ := m.lookup(filler, h+1)
		m.store(s, filler, h+1, false, 1)
	}
	s, _ = m.lookup(b[:1], h+2)
	m.store(s, b[:1], h+2, false, 1) // lands on a's first word
	if _, hit := m.lookup(b, h); hit {
		t.Fatal("overwritten arena words answered for another key")
	}
}
