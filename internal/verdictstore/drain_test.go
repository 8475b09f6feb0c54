package verdictstore

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// testdata/parent-store.journal was written by the verdict store before
// it moved into this package: a PutVerdict of the (7,3) solve, then a
// PutCheckpoint of a (7,4) drain suspended at budget 150 (one worker),
// both under solver version ringrobots-solver-6, whose instance keys
// are these.
const (
	fixtureSolverVersion = "ringrobots-solver-6"
	fixtureVerdictKey    = "e2e4568568217a6939e52a9ac61c38ac3223f7be9fef5bb6966a543f6ad0885d"
	fixtureCheckpointKey = "b7ab6f63caffc8b80f766b2bc50003623b107cef6dc434b44c48f7af18767b5e"
)

func hexKey(t *testing.T, h string) string {
	t.Helper()
	k, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return string(k)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOpenStoreWrittenBeforeMove: the on-disk format did not change.
// The fixture opens and serves both records, rewriting the served
// records with today's code reproduces the file byte for byte, and a
// drain of (7,4) resumes the fixture's checkpoint.
func TestOpenStoreWrittenBeforeMove(t *testing.T) {
	// The store takes a lock file beside its journal and may truncate a
	// torn tail, so the fixture is never opened in place.
	fixture := readFile(t, filepath.Join("testdata", "parent-store.journal"))
	path := filepath.Join(t.TempDir(), "store.journal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFS(faultfs.OS{}, path, journal.SyncAlways)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	vKey, cKey := hexKey(t, fixtureVerdictKey), hexKey(t, fixtureCheckpointKey)
	v, ok := st.Verdict(vKey)
	if !ok {
		t.Fatal("fixture verdict not served")
	}
	if !v.Impossible || v.Tier != 0 || v.TablesExplored != 80 || v.Survivor != nil {
		t.Fatalf("fixture verdict = %+v, want (7,3) impossible at tier 0 after 80 tables", v)
	}
	raw, ok := st.Checkpoint(cKey)
	if !ok || len(raw) == 0 {
		t.Fatal("fixture checkpoint not served")
	}

	fresh := filepath.Join(t.TempDir(), "fresh.journal")
	st2, err := OpenFS(faultfs.OS{}, fresh, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.PutVerdict(vKey, v); err != nil {
		t.Fatal(err)
	}
	if err := st2.PutCheckpoint(cKey, raw); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fresh); !bytes.Equal(got, fixture) {
		t.Fatalf("rewriting the fixture's records gives %d bytes that differ from the %d-byte fixture", len(got), len(fixture))
	}

	// The keys fold in the solver version, so only a store written
	// under the current version resumes its checkpoint.
	inst := feasibility.Instance{N: 7, K: 4}.Normalized()
	sol := inst.Solver()
	sol.Workers = 1
	res, cp, resumed, err := st.Drain(context.Background(), inst.Key(), inst, sol, 0, quietLogger())
	if err != nil || cp != nil {
		t.Fatalf("drain: cp=%v err=%v", cp != nil, err)
	}
	if wantResumed := feasibility.SolverVersion == fixtureSolverVersion; resumed != wantResumed {
		t.Fatalf("resumed = %v, want %v under solver version %s", resumed, wantResumed, feasibility.SolverVersion)
	}
	if direct := solveDirect(t, inst); res.Impossible != direct.Impossible || res.Tier != direct.Tier ||
		res.TablesExplored != direct.TablesExplored {
		t.Fatalf("drain from the fixture = %+v, uninterrupted %+v", res, direct)
	}
}

// TestDrainBudgetChain: a chain of budget-suspended Drain legs journals
// each suspension, resumes it on the next leg, and ends at the
// uninterrupted verdict and TablesExplored (one worker), which it
// journals; the store counts what it wrote.
func TestDrainBudgetChain(t *testing.T) {
	st, err := OpenFS(faultfs.OS{}, filepath.Join(t.TempDir(), "store.journal"), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	inst := feasibility.Instance{N: 8, K: 5}.Normalized()
	key := inst.Key()
	direct := solveDirect(t, inst)
	legs := 0
	for ; ; legs++ {
		if legs == 200 {
			t.Fatal("chain did not finish in 200 legs")
		}
		sol := inst.Solver()
		sol.Workers = 1
		sol.MaxExpansions = 200
		sol.CheckpointEvery = 4
		res, cp, resumed, err := st.Drain(context.Background(), key, inst, sol, 8, quietLogger())
		if resumed != (legs > 0) {
			t.Fatalf("leg %d: resumed = %v", legs, resumed)
		}
		if cp != nil {
			if !errors.Is(err, feasibility.ErrBudget) {
				t.Fatalf("leg %d: suspended by %v, want the budget", legs, err)
			}
			stored, ok := st.Checkpoint(key)
			want, _ := cp.MarshalBinary()
			if !ok || !bytes.Equal(stored, want) {
				t.Fatalf("leg %d: the suspension checkpoint is not the stored one", legs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("leg %d: %v", legs, err)
		}
		if res.Impossible != direct.Impossible || res.Tier != direct.Tier || res.TablesExplored != direct.TablesExplored {
			t.Fatalf("chain = %+v, uninterrupted %+v", res, direct)
		}
		break
	}
	if legs == 0 {
		t.Fatal("no leg suspended; the budget no longer exercises resume")
	}
	if v, ok := st.Verdict(key); !ok || v.TablesExplored != direct.TablesExplored {
		t.Fatal("the chain's verdict is not stored")
	}
	if _, ok := st.Checkpoint(key); ok {
		t.Fatal("a finished drain still serves a checkpoint")
	}
	checkpoints, compactions := st.Activity()
	if checkpoints < int64(legs) || compactions == 0 {
		t.Fatalf("Activity() = %d checkpoints, %d compactions over %d suspended legs", checkpoints, compactions, legs)
	}
}

// TestDrainStartsFreshOnMismatchedCheckpoint: a checkpoint stored under
// an instance's key that belongs to another instance is logged and
// ignored, never resumed.
func TestDrainStartsFreshOnMismatchedCheckpoint(t *testing.T) {
	other := feasibility.Instance{N: 8, K: 5}.Normalized().Solver()
	other.Workers = 1
	other.MaxExpansions = 200
	_, cp, _ := other.SolveContext(context.Background())
	if cp == nil {
		t.Fatal("expected a budget suspension")
	}
	raw, _ := cp.MarshalBinary()
	inst := feasibility.Instance{N: 7, K: 4}.Normalized()
	for _, stored := range [][]byte{raw, []byte("not a checkpoint")} {
		st, err := OpenFS(faultfs.OS{}, filepath.Join(t.TempDir(), "store.journal"), journal.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.PutCheckpoint(inst.Key(), stored); err != nil {
			t.Fatal(err)
		}
		var logs bytes.Buffer
		sol := inst.Solver()
		sol.Workers = 1
		res, _, resumed, err := st.Drain(context.Background(), inst.Key(), inst, sol, 0, slog.New(slog.NewTextHandler(&logs, nil)))
		if err != nil || resumed {
			t.Fatalf("drain over a foreign checkpoint: resumed=%v err=%v", resumed, err)
		}
		if !strings.Contains(logs.String(), "starting fresh") {
			t.Fatalf("ignoring the stored checkpoint was not logged: %q", logs.String())
		}
		if direct := solveDirect(t, inst); res.TablesExplored != direct.TablesExplored {
			t.Fatalf("fresh drain explored %d tables, uninterrupted %d", res.TablesExplored, direct.TablesExplored)
		}
	}
}

// TestDrainStorageFailures: journal faults surface as ErrStorage with
// no checkpoint, whether a periodic checkpoint, the verdict's fsync or
// a suspension checkpoint fails.
func TestDrainStorageFailures(t *testing.T) {
	inst := feasibility.Instance{N: 8, K: 5}.Normalized()
	for _, tc := range []struct {
		name   string
		every  int
		budget int
		op     faultfs.Op
	}{
		{"periodic checkpoint", 4, 0, faultfs.OpWrite},
		{"verdict fsync", 0, 0, faultfs.OpSync},
		{"suspension checkpoint", 0, 200, faultfs.OpWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := faultfs.NewInjector(faultfs.OS{}, 1)
			st, err := OpenFS(in, filepath.Join(t.TempDir(), "store.journal"), journal.SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			in.FailNth(tc.op, in.Count(tc.op)+1, faultfs.EIO())
			sol := inst.Solver()
			sol.Workers = 1
			sol.CheckpointEvery = tc.every
			if tc.budget > 0 {
				sol.MaxExpansions = tc.budget
			}
			_, cp, _, err := st.Drain(context.Background(), inst.Key(), inst, sol, 0, quietLogger())
			if cp != nil || !errors.Is(err, ErrStorage) {
				t.Fatalf("cp=%v err=%v, want an ErrStorage failure", cp != nil, err)
			}
		})
	}
}
