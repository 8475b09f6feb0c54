package feasibility

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Instance is the canonical identity of a solve: every parameter that
// determines the verdict, and nothing that doesn't. Workers and
// MaxExpansions are deliberately absent — they change wall time and
// where a drain suspends, never the verdict — so a verdict computed
// under one budget or worker count is valid for every other. A
// content-addressed verdict store (internal/verdictstore) keys on
// Instance.Key, which also folds in SolverVersion: a semantics bump
// silently retires every stored verdict and checkpoint instead of
// serving stale answers. The Solver.No* differential oracles are absent
// too: they reach the same verdict by contract, only slower.
type Instance struct {
	N, K         int
	MaxCycleLen  int
	PendingTiers []int
}

// InstanceOf captures the solver's verdict-determining parameters in
// normalized form (defaults filled in, tier ladder copied).
func (s *Solver) InstanceOf() Instance {
	return Instance{
		N:            s.N,
		K:            s.K,
		MaxCycleLen:  s.MaxCycleLen,
		PendingTiers: append([]int(nil), s.PendingTiers...),
	}.Normalized()
}

// Normalized fills the solver defaults (MaxCycleLen 24, tier ladder
// {0, 2}) so that equal games get equal keys regardless of whether the
// caller spelled the defaults out.
func (inst Instance) Normalized() Instance {
	if inst.MaxCycleLen == 0 {
		inst.MaxCycleLen = 24
	}
	if len(inst.PendingTiers) == 0 {
		inst.PendingTiers = []int{0, 2}
	} else {
		inst.PendingTiers = append([]int(nil), inst.PendingTiers...)
	}
	return inst
}

// Validate reports every problem with the instance at once (one
// aggregated error, errors.Join), not just the first — the fail-fast
// contract service request validation and the CLIs rely on.
func (inst Instance) Validate() error {
	inst = inst.Normalized()
	var errs []error
	if inst.N < 3 || inst.N > maxRingSize {
		errs = append(errs, fmt.Errorf("ring size n=%d out of range [3, %d]", inst.N, maxRingSize))
	}
	if inst.K < 1 || inst.K >= inst.N {
		errs = append(errs, fmt.Errorf("robot count k=%d out of range [1, n-1] for n=%d", inst.K, inst.N))
	}
	if inst.MaxCycleLen < 2 {
		errs = append(errs, fmt.Errorf("MaxCycleLen %d below minimum 2", inst.MaxCycleLen))
	}
	for i, t := range inst.PendingTiers {
		if t < 0 {
			errs = append(errs, fmt.Errorf("pending tier %d is negative (%d)", i, t))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("feasibility: invalid instance: %w", errors.Join(errs...))
	}
	return nil
}

// Solver builds a solver for the instance with the package defaults
// for everything outside the instance identity (budget, worker count).
func (inst Instance) Solver() *Solver {
	inst = inst.Normalized()
	s := NewSolver(inst.N, inst.K)
	s.MaxCycleLen = inst.MaxCycleLen
	s.PendingTiers = append([]int(nil), inst.PendingTiers...)
	return s
}

// appendCanonical emits the deterministic byte encoding Key hashes:
// solver version, ring parameters, a zero byte, tier ladder.
func (inst Instance) appendCanonical(b []byte) []byte {
	inst = inst.Normalized()
	b = binary.AppendUvarint(b, uint64(len(SolverVersion)))
	b = append(b, SolverVersion...)
	b = binary.AppendUvarint(b, uint64(inst.N))
	b = binary.AppendUvarint(b, uint64(inst.K))
	b = binary.AppendUvarint(b, uint64(inst.MaxCycleLen))
	// The zero byte held the oracle mode flags when instances carried
	// them; it stays so keys remain byte-identical and existing stores
	// keep serving their verdicts and checkpoints.
	b = append(b, 0)
	b = binary.AppendUvarint(b, uint64(len(inst.PendingTiers)))
	for _, t := range inst.PendingTiers {
		b = binary.AppendUvarint(b, uint64(t))
	}
	return b
}

// Key returns the 32-byte content address of the instance (as a raw
// string usable as a map key): SHA-256 over the canonical encoding.
// Two solvers share a key exactly when their verdicts are
// interchangeable and their checkpoints mutually resumable.
func (inst Instance) Key() string {
	sum := sha256.Sum256(inst.appendCanonical(nil))
	return string(sum[:])
}

// String renders the instance for logs and error messages.
func (inst Instance) String() string {
	inst = inst.Normalized()
	return fmt.Sprintf("(k=%d,n=%d,cyc=%d,tiers=%v)",
		inst.K, inst.N, inst.MaxCycleLen, inst.PendingTiers)
}

// Matches reports whether the checkpoint was written by a drain of
// exactly this instance under the current SolverVersion, with no
// differential oracle mode set — the precondition for resuming it as
// this instance's drain. The verdict store keys checkpoints by
// Instance.Key, which covers the same fields, so a mismatch indicates
// store corruption rather than a routine condition.
func (ck *Checkpoint) Matches(inst Instance) bool {
	if ck == nil {
		return false
	}
	inst = inst.Normalized()
	if ck.version != SolverVersion || ck.n != inst.N || ck.k != inst.K || ck.maxCycleLen != inst.MaxCycleLen {
		return false
	}
	if ck.noQuotient || ck.noIncremental || ck.noPrune {
		return false
	}
	if len(ck.pendingTiers) != len(inst.PendingTiers) {
		return false
	}
	for i, t := range inst.PendingTiers {
		if ck.pendingTiers[i] != t {
			return false
		}
	}
	return true
}
