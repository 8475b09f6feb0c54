// Command experiments reruns the reproduction experiments E1 and E3–E9
// and prints paper-claim-vs-measured rows. The E-ids also label the
// matching benchmark families in bench_test.go.
//
// Usage:
//
//	experiments                 # everything except the slow game solver
//	experiments -solver         # include the Theorem 5 game-solver cases
//	experiments -e E1,E3        # a subset
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"ringrobots"
	"ringrobots/internal/align"
	"ringrobots/internal/config"
	"ringrobots/internal/corda"
	"ringrobots/internal/enumerate"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/gather"
	"ringrobots/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		withSolver = flag.Bool("solver", false, "run the exhaustive Theorem 5 game solver (minutes)")
		only       = flag.String("e", "", "comma-separated experiment ids (default: all fast ones)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id != "" {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }

	if run("E1") {
		e1AlignTheorem1()
	}
	if run("E3") {
		e3Figures()
	}
	if run("E4") {
		e4Impossibility(*withSolver)
	}
	if run("E5") {
		e5RingClearing()
	}
	if run("E6") {
		e6NminusThree()
	}
	if run("E7") {
		e7Gathering()
	}
	if run("E8") {
		e8Characterization()
	}
	if run("E9") {
		e9Engines()
	}
}

func header(id, claim string) {
	fmt.Printf("\n== %s ==\npaper: %s\n", id, claim)
}

func e1AlignTheorem1() {
	header("E1 (Theorem 1)", "Align reaches C* from every rigid configuration, 3 <= k < n-2")
	fmt.Println("   n   k  rigid-classes  max-moves  all-reached")
	for n := 6; n <= 13; n++ {
		for k := 3; k < n-2; k++ {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				log.Fatal(err)
			}
			maxMoves := 0
			for _, c := range classes {
				moves := 0
				cur := c
				for !cur.IsCStar() {
					p, err := align.ComputePlan(cur)
					if err != nil {
						log.Fatalf("n=%d k=%d: %v", n, k, err)
					}
					cur, err = align.Apply(cur, p)
					if err != nil {
						log.Fatal(err)
					}
					moves++
					if moves > 4*n*n {
						log.Fatalf("n=%d k=%d: no convergence from %v", n, k, c)
					}
				}
				if moves > maxMoves {
					maxMoves = moves
				}
			}
			fmt.Printf("  %2d  %2d  %13d  %9d  %v\n", n, k, len(classes), maxMoves, true)
		}
	}
}

func e3Figures() {
	header("E3 (Figures 4-9)", "distinct configurations: (4,7)=4 (4,8)=8 (5,8)=5 (6,9)=7 (4,9)=10 (5,9)=10")
	fmt.Println("  figure  (k,n)   paper  measured  match")
	for _, f := range feasibility.PaperFigures() {
		g, err := ringrobots.TransitionGraph(f.N, f.K)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Fig %d   (%d,%d)  %5d  %8d  %v\n", f.Figure, f.K, f.N, f.Classes, len(g.Classes), len(g.Classes) == f.Classes)
	}
}

func e4Impossibility(full bool) {
	header("E4 (Theorems 2-5, Lemma 6)", "perpetual searching impossible for k<=3, k in {n-2,n-1}, and all 2<n<=9")
	type e4case struct {
		n, k  int
		claim string
		// budget caps MaxExpansions below the solver default (0 keeps
		// it): the wide open-region sweeps are bounded probes, not
		// exhaustive drains.
		budget int
	}
	cases := []e4case{
		{n: 4, k: 1, claim: "Thm 2"}, {n: 6, k: 1, claim: "Thm 2"},
		{n: 5, k: 2, claim: "Thm 2"}, {n: 7, k: 2, claim: "Thm 2"},
		{n: 5, k: 3, claim: "Thm 3/4"}, {n: 6, k: 3, claim: "Thm 3"}, {n: 7, k: 3, claim: "Thm 3"},
		{n: 5, k: 4, claim: "Lem 6"}, {n: 6, k: 5, claim: "Lem 6"}, {n: 7, k: 6, claim: "Lem 6"},
		{n: 6, k: 4, claim: "Thm 4"}, {n: 7, k: 5, claim: "Thm 4"},
		// Wide rings, past the former n ≤ 16 packed-state limit: the
		// 192-bit state supports n ≤ 32 end to end, and the symmetry
		// quotient keeps the interned graphs 2n× smaller. Incremental
		// branch reuse (PR 4) cuts the charged budget on the k = 3
		// drains to ≈ 4.8 units/branch (vs ≈ 34), a ~7× deeper drain per
		// budget — but the (3,19)/(3,20) table trees still exceed 52M
		// branches, so those two stay out of the sweep (wall-clock-bound
		// now; see ROADMAP.md). Where 3 | n the drain collapses to a
		// handful of tables, hence the (3,21) row.
		{n: 18, k: 1, claim: "Thm 2 (wide)"}, {n: 20, k: 2, claim: "Thm 2 (wide)"},
		{n: 24, k: 2, claim: "Thm 2 (wide)"}, {n: 32, k: 2, claim: "Thm 2 (wide)"},
		{n: 18, k: 3, claim: "Thm 3 (wide)"}, {n: 21, k: 3, claim: "Thm 3 (wide)"},
	}
	if full {
		for _, f := range feasibility.PaperFigures() {
			cases = append(cases, e4case{n: f.N, k: f.K, claim: fmt.Sprintf("Thm 5 (Fig %d)", f.Figure)})
		}
		// The k ≥ 4, n ≥ 20 sweep the symmetry quotient opened. Careful
		// with the semantics: the solver's adversary picks ANY exclusive
		// start, while the paper's possibility results (Theorem 6 and
		// the open k = 4 band) assume rigid starts. With k dividing n
		// the adversary can start perfectly periodic — every robot sees
		// one symmetric observation and short symmetric lassos beat any
		// table — so "impossible" below means "from every start
		// (symmetric included)" and does not contradict the paper
		// (rows marked *). The quotiented and unquotiented searchers
		// agree on these verdicts; the quotient just reaches them with
		// n-fold smaller graphs (a symmetric lasso collapses to a
		// near-self-loop on canonical states). Bounded-adversary
		// survivors stay labeled inconclusive, as in the (5,9) paper
		// case.
		cases = append(cases,
			e4case{n: 20, k: 4, claim: "open*", budget: 50_000_000},
			e4case{n: 20, k: 5, claim: "Thm 6*", budget: 50_000_000},
			e4case{n: 24, k: 4, claim: "open*", budget: 50_000_000},
		)
	}
	// branches-reused counts tables analyzed incrementally from their
	// parent's snapshot; states-reexpanded is the expansion work
	// actually performed, so tables-explored × graph size vs
	// states-reexpanded shows the compression incremental reuse buys.
	// dominated counts child branches the one-step dominance probe
	// refuted without analysis (they never reach tables-explored).
	fmt.Println("  (k,n)   paper-claims  solver-verdict  tables-explored  branches-reused  states-reexpanded  dominated  time")
	for _, tc := range cases {
		t0 := time.Now()
		s := feasibility.NewSolver(tc.n, tc.k)
		if tc.budget > 0 {
			s.MaxExpansions = tc.budget
		}
		res, err := s.Solve()
		verdict := "impossible"
		switch {
		case errors.Is(err, feasibility.ErrBudget):
			verdict = "budget exhausted (inconclusive)"
		case err != nil:
			verdict = "error: " + err.Error()
		case !res.Impossible:
			// A survivor of the solver's bounded adversary is inconclusive,
			// not a contradiction: among the paper cases only (5,9) ends
			// this way — the case whose proof needs the most intricate
			// asynchronous scheduling — and the open-region rows are
			// expected to end this way.
			verdict = "survivor (bounded adversary; inconclusive)"
		}
		fmt.Printf("  (%d,%d)  %-12s  %-38s  %15d  %15d  %17d  %9d  %v\n",
			tc.k, tc.n, tc.claim, verdict, res.TablesExplored, res.BranchesReused, res.StatesReexpanded,
			res.BranchesDominated,
			time.Since(t0).Round(time.Millisecond))
	}
	if !full {
		fmt.Println("  (run with -solver for the six exhaustive Theorem 5 cases and the k>=4 wide open-region sweep)")
	}
}

func e5RingClearing() {
	header("E5 (Theorem 6)", "Ring Clearing perpetually searches+explores for n>=10, 5<=k<n-3, except (5,10)")
	fmt.Println("   n   k  cycle-activations  moves/cycle  probes  max-recovery  explored")
	for _, tc := range []struct{ n, k int }{{11, 5}, {12, 6}, {13, 7}, {14, 8}, {15, 9}, {16, 5}} {
		c, err := config.CStar(tc.n, tc.k)
		if err != nil {
			log.Fatal(err)
		}
		alg, err := ringrobots.NewAlgorithm(ringrobots.Searching, tc.n, tc.k)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := search.Verify(c, alg, 3000*tc.n*tc.k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d  %2d  %17d  %11d  %6d  %12d  %v\n", tc.n, tc.k, rep.CycleLen, rep.MovesPerCycle, rep.Probes, rep.MaxRecoverySteps, rep.Explored)
	}
}

func e6NminusThree() {
	header("E6 (Theorem 7)", "NminusThree perpetually searches+explores for k=n-3, n>=10")
	fmt.Println("   n   k  cycle-activations  moves/cycle  probes  max-recovery  explored")
	for n := 10; n <= 15; n++ {
		k := n - 3
		c, err := config.CStar(n, k)
		if err != nil {
			log.Fatal(err)
		}
		// C* is rigid and valid for k = n-3 only while k < n-2: always.
		alg, err := ringrobots.NewAlgorithm(ringrobots.Searching, n, k)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := search.Verify(c, alg, 4000*n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d  %2d  %17d  %11d  %6d  %12d  %v\n", n, k, rep.CycleLen, rep.MovesPerCycle, rep.Probes, rep.MaxRecoverySteps, rep.Explored)
	}
}

func e7Gathering() {
	header("E7 (Theorem 8)", "gathering with local multiplicity detection, 2 < k < n-2")
	fmt.Println("   n   k  starts  max-moves  all-gathered")
	for n := 6; n <= 12; n++ {
		for k := 3; k < n-2; k += 2 {
			classes, err := enumerate.RigidClasses(n, k)
			if err != nil {
				log.Fatal(err)
			}
			maxMoves := 0
			for _, c := range classes {
				w, err := gather.NewWorld(c)
				if err != nil {
					log.Fatal(err)
				}
				moves, err := gather.Run(w, 200*n*n)
				if err != nil {
					log.Fatalf("n=%d k=%d: %v", n, k, err)
				}
				if moves > maxMoves {
					maxMoves = moves
				}
			}
			fmt.Printf("  %2d  %2d  %6d  %9d  %v\n", n, k, len(classes), maxMoves, true)
		}
	}
}

func e8Characterization() {
	header("E8 (contribution table)", "almost-full characterization of perpetual graph searching")
	counts := map[ringrobots.Verdict]int{}
	for n := 3; n <= 20; n++ {
		for k := 1; k <= n; k++ {
			v, _ := ringrobots.CharacterizeSearching(n, k)
			counts[v]++
		}
	}
	fmt.Printf("  verdict counts over 3<=n<=20: solvable=%d impossible=%d open=%d degenerate=%d\n",
		counts[ringrobots.Solvable], counts[ringrobots.Impossible], counts[ringrobots.Open], counts[ringrobots.Degenerate])
	fmt.Println("  (full matrix: cmd/characterize)")
}

func e9Engines() {
	header("E9 (model equivalence)", "sequential and async executions agree for the paper's algorithms")
	rng := rand.New(rand.NewSource(9))
	n, k := 12, 5
	c, err := enumerate.RandomRigid(rng, n, k, 10000)
	if err != nil {
		log.Fatal(err)
	}
	// Sequential.
	ws, _ := gather.NewWorld(c)
	seqMoves, err := gather.Run(ws, 100000)
	if err != nil {
		log.Fatal(err)
	}
	// Async.
	wa, _ := gather.NewWorld(c)
	as := corda.NewAsyncRunner(wa, gather.Gathering{}, corda.NewRandomAsync(3, 0.4))
	if _, err := as.RunUntil((*corda.World).Gathered, 1_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  start %v\n", c)
	fmt.Printf("  sequential: gathered=%v moves=%d\n", ws.Gathered(), seqMoves)
	fmt.Printf("  async:      gathered=%v moves=%d\n", wa.Gathered(), as.Moves())
}
