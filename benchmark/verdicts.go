package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"ringrobots/internal/feasibility"
)

// verdictsPath is the committed table of expected verdicts, relative to
// this package's directory.
const verdictsPath = "testdata/verdicts.json"

// coldUnitCap drops serve-cold grid points whose direct solve spends
// more expansion units than this: the whole grid must be solvable
// several times inside one run.
const coldUnitCap = 100_000

// query is one /solve request's instance: ring size, robot count, cycle
// cap (0: service default 24) and tier ladder (nil: default 0,2).
type query struct {
	N      int   `json:"n"`
	K      int   `json:"k"`
	Cycle  int   `json:"cycle,omitempty"`
	Tiers  []int `json:"tiers,omitempty"`
	Budget int   `json:"budget,omitempty"`
}

func (q query) instance() feasibility.Instance {
	return feasibility.Instance{N: q.N, K: q.K, MaxCycleLen: q.Cycle, PendingTiers: q.Tiers}.Normalized()
}

// id names the instance (not the budget) for maps and reports.
func (q query) id() string {
	inst := q.instance()
	return fmt.Sprintf("n=%d,k=%d,cycle=%d,tiers=%s", inst.N, inst.K, inst.MaxCycleLen, joinInts(inst.PendingTiers))
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// verdict is the expected answer for one instance.
type verdict struct {
	query
	Impossible bool  `json:"impossible"`
	Tier       int   `json:"tier"`
	Units      int64 `json:"units"`
	// Legs is, for a resume chain, how many budget-limited requests the
	// chain took at the commit that generated the file.
	Legs int `json:"legs,omitempty"`
}

// expectations is testdata/verdicts.json.
type expectations struct {
	SolverVersion string    `json:"solver_version"`
	UnitCap       int       `json:"unit_cap"`
	Grid          []verdict `json:"grid"`
	Dropped       []query   `json:"dropped"`
	Chains        []verdict `json:"chains"`
	Drains        []verdict `json:"drains"`
}

// gridQueries is the serve-cold grid before the unit cap: every k for n
// in 3..12, cycle caps 8..24 in steps of 2, tier ladders {0,2} and
// {0,1,2}.
func gridQueries() []query {
	var qs []query
	for n := 3; n <= 12; n++ {
		for k := 1; k < n; k++ {
			for cycle := 8; cycle <= 24; cycle += 2 {
				for _, tiers := range [][]int{{0, 2}, {0, 1, 2}} {
					qs = append(qs, query{N: n, K: k, Cycle: cycle, Tiers: tiers})
				}
			}
		}
	}
	return qs
}

// chainQueries are serve-resume's budget-suspend-then-retry chains. Each
// instance runs at several cycle caps so every chain has its own key.
// Budgets stay well above the (9,5) non-convergence documented in the
// README (budget 2000).
func chainQueries() []query {
	var qs []query
	for _, c := range []struct {
		n, k, budget int
		cycles       []int
	}{
		{10, 3, 5_000, []int{8, 12, 16, 20, 24}},
		{9, 5, 5_000, []int{8, 12, 16, 20, 24}},
		{11, 6, 50_000, []int{8, 16}},
		{32, 3, 20_000, []int{16}},
	} {
		for _, cycle := range c.cycles {
			qs = append(qs, query{N: c.n, K: c.k, Cycle: cycle, Budget: c.budget})
		}
	}
	return qs
}

// drainQueries are the instances the drain workloads run to their
// verdicts, all tier-0 impossibilities: drain-single's, drain-pool's,
// and both workloads' in smoke runs. A single-process drain of (11,3)
// takes 6-7 s on the benchmark box, too long to repeat within a run, so
// drain-single drains (11,6): the same path with ~170 checkpoints in
// about 0.3 s. A pool drain of (11,6) would measure little but the
// coordinator's 150 ms poll, so drain-pool drains (11,3) in about 1.6 s.
var drainQueries = []query{{N: 11, K: 6}, {N: 11, K: 3}, {N: 10, K: 3}}

// loadExpectations reads the verdict table from dir and refuses a table
// generated by another solver version: its verdicts would not be
// evidence about this one.
func loadExpectations(dir string) (*expectations, error) {
	raw, err := os.ReadFile(filepath.Join(dir, verdictsPath))
	if err != nil {
		return nil, fmt.Errorf("reading expected verdicts: %w", err)
	}
	var exp expectations
	if err := json.Unmarshal(raw, &exp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", verdictsPath, err)
	}
	if exp.SolverVersion != feasibility.SolverVersion {
		return nil, fmt.Errorf("%s was generated by solver %q but this solver is %q; rerun with -regen",
			verdictsPath, exp.SolverVersion, feasibility.SolverVersion)
	}
	if len(exp.Grid) == 0 || len(exp.Chains) == 0 || len(exp.Drains) != len(drainQueries) {
		return nil, fmt.Errorf("%s is missing grid, chain or drain verdicts; rerun with -regen", verdictsPath)
	}
	return &exp, nil
}

// byID indexes verdicts by instance id.
func byID(vs []verdict) map[string]verdict {
	m := make(map[string]verdict, len(vs))
	for _, v := range vs {
		m[v.id()] = v
	}
	return m
}

// regenerate solves every grid point, chain and drain directly and
// rewrites the verdict table in dir.
func regenerate(dir string) error {
	exp := expectations{SolverVersion: feasibility.SolverVersion, UnitCap: coldUnitCap}

	grid := gridQueries()
	results := make([]*verdict, len(grid))
	errs := make([]error, len(grid))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = solveCapped(grid[i], coldUnitCap)
			}
		}()
	}
	for i := range grid {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, q := range grid {
		if errs[i] != nil {
			return fmt.Errorf("solving %s: %w", q.id(), errs[i])
		}
		if results[i] == nil {
			exp.Dropped = append(exp.Dropped, q)
			continue
		}
		exp.Grid = append(exp.Grid, *results[i])
	}

	for _, q := range chainQueries() {
		v, err := solveChain(q)
		if err != nil {
			return fmt.Errorf("chain %s budget %d: %w", q.id(), q.Budget, err)
		}
		exp.Chains = append(exp.Chains, v)
	}

	for _, q := range drainQueries {
		v, err := solveCapped(q, 0)
		if err != nil {
			return fmt.Errorf("drain %s: %w", q.id(), err)
		}
		exp.Drains = append(exp.Drains, *v)
	}

	buf, err := marshalLines(exp)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, verdictsPath), buf, 0o644)
}

// marshalLines encodes the table with one entry per line, so a
// regeneration's diff names the instances whose verdicts changed.
func marshalLines(exp expectations) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"solver_version\": %q, \"unit_cap\": %d", exp.SolverVersion, exp.UnitCap)
	for _, sec := range []struct {
		name    string
		entries any
	}{{"grid", exp.Grid}, {"dropped", exp.Dropped}, {"chains", exp.Chains}, {"drains", exp.Drains}} {
		raw, err := json.Marshal(sec.entries)
		if err != nil {
			return nil, err
		}
		var items []json.RawMessage
		if err := json.Unmarshal(raw, &items); err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, ",\n%q: [", sec.name)
		for i, it := range items {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString("\n  ")
			buf.Write(it)
		}
		buf.WriteString("\n]")
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}

// solveCapped solves an instance the way the service does (one solver
// worker) and returns its verdict, or nil when it needs more than
// unitCap expansion units (0: no cap).
func solveCapped(q query, unitCap int) (*verdict, error) {
	s := q.instance().Solver()
	s.Workers = 1
	if unitCap > 0 {
		s.MaxExpansions = unitCap
	}
	res, err := s.Solve()
	if errors.Is(err, feasibility.ErrBudget) || (unitCap > 0 && res.ExpansionUnits > int64(unitCap)) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &verdict{query: q, Impossible: res.Impossible, Tier: res.Tier, Units: res.ExpansionUnits}, nil
}

// solveChain runs a budget-limited suspend/resume chain directly and
// counts its legs; the service's chain takes the same legs because each
// retry resumes from the suspension checkpoint with a fresh budget.
func solveChain(q query) (verdict, error) {
	var ck *feasibility.Checkpoint
	for legs := 1; legs <= 1000; legs++ {
		s := q.instance().Solver()
		s.Workers = 1
		s.MaxExpansions = q.Budget
		var (
			res feasibility.Result
			cp  *feasibility.Checkpoint
			err error
		)
		if ck == nil {
			res, cp, err = s.SolveContext(context.Background())
		} else {
			res, cp, err = s.Resume(context.Background(), ck)
		}
		switch {
		case err == nil:
			return verdict{query: q, Impossible: res.Impossible, Tier: res.Tier, Units: res.ExpansionUnits, Legs: legs}, nil
		case cp == nil:
			return verdict{}, err
		}
		ck = cp
	}
	return verdict{}, errors.New("no verdict after 1000 legs")
}
