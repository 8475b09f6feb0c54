package feasibility

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"ringrobots/internal/journal"
)

// The fault-injection suite: a journaled drain runs in a subprocess
// that SIGKILLs itself after a randomized number of processed branches;
// the parent respawns it against the same journal until a verdict
// lands, then checks the crash-riddled drain reached exactly the
// uninterrupted outcome — verdict, tier, survivor validity, and (single
// worker) bit-identical TablesExplored. This is the real-crash
// counterpart of TestPeriodicCheckpointResume, exercising the whole
// stack: periodic checkpoints, fsync'd journal appends, torn-tail
// recovery on reopen, checkpoint decode, and Resume.

const faultHelperEnv = "RINGROBOTS_FAULT_HELPER"

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fault helper: bad %s=%q: %v\n", name, v, err)
			os.Exit(2)
		}
		return n
	}
	return def
}

// TestFaultHelperProcess is not a test: it is the subprocess body of
// the fault suite, entered only when the parent re-executes the test
// binary with faultHelperEnv set. It runs (or resumes) one journaled
// drain leg, killing itself mid-search when asked to, and exits the
// process directly.
func TestFaultHelperProcess(t *testing.T) {
	if os.Getenv(faultHelperEnv) != "1" {
		t.Skip("not a fault-helper invocation")
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fault helper: "+format+"\n", args...)
		os.Exit(2)
	}
	log, err := journal.Open(os.Getenv("RINGROBOTS_FAULT_JOURNAL"), journal.SyncAlways)
	if err != nil {
		fail("open journal: %v", err)
	}
	s := NewSolver(envInt("RINGROBOTS_FAULT_RING", 7), envInt("RINGROBOTS_FAULT_ROBOTS", 3))
	s.Workers = 1
	if c := envInt("RINGROBOTS_FAULT_CYCLECAP", 0); c > 0 {
		s.MaxCycleLen = c
	}
	if tiers := os.Getenv("RINGROBOTS_FAULT_TIERS"); tiers != "" {
		s.PendingTiers = nil
		for _, part := range strings.Split(tiers, ",") {
			v, err := strconv.Atoi(part)
			if err != nil {
				fail("bad tiers %q", tiers)
			}
			s.PendingTiers = append(s.PendingTiers, v)
		}
	}
	s.CheckpointEvery = envInt("RINGROBOTS_FAULT_EVERY", 2)
	s.OnCheckpoint = func(cp *Checkpoint) error {
		raw, err := cp.MarshalBinary()
		if err != nil {
			return err
		}
		return log.Append(append([]byte{'C'}, raw...))
	}
	if crashAfter := int64(envInt("RINGROBOTS_FAULT_CRASH_AFTER", 0)); crashAfter > 0 {
		s.BranchHook = func(done int64) {
			if done >= crashAfter {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	var resume *Checkpoint
	if last, ok := log.Last(); ok {
		if len(last) == 0 {
			fail("empty journal record")
		}
		if last[0] == 'V' {
			os.Exit(0) // a previous leg already finished the drain
		}
		ck, err := UnmarshalCheckpoint(last[1:])
		if err != nil {
			fail("decode checkpoint: %v", err)
		}
		resume = ck
	}
	var res Result
	if resume != nil {
		res, _, err = s.Resume(context.Background(), resume)
	} else {
		res, _, err = s.SolveContext(context.Background())
	}
	if err != nil {
		fail("solve: %v", err)
	}
	v := []byte{'V', 0}
	if res.Impossible {
		v[1] |= 1
	}
	if res.SurvivorTable != nil {
		v[1] |= 2
	}
	v = binary.AppendUvarint(v, uint64(res.Tier))
	v = binary.AppendUvarint(v, uint64(res.TablesExplored))
	if res.SurvivorTable != nil {
		v = res.SurvivorTable.AppendBinary(v)
	}
	if err := log.Append(v); err != nil {
		fail("journal verdict: %v", err)
	}
	if err := log.Close(); err != nil {
		fail("close journal: %v", err)
	}
	os.Exit(0)
}

// TestCrashResumeEquivalence drives the subprocess fault helper with
// kill -9 at randomized branch counts until the journaled drain reaches
// a verdict, then compares it to the uninterrupted in-process run.
func TestCrashResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fault suite skipped under -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cases := []struct {
		name     string
		n, k     int
		cycleCap int
		tiers    string
	}{
		// An impossibility verdict on the deepest cheap tree...
		{"impossible", 7, 3, 0, ""},
		// ...and a survivor verdict (crippled adversary, per
		// TestSurvivorIndependentOfSchedule) so the prior-survivor and
		// survivor-serialization paths cross a real crash too.
		{"survivor", 7, 4, 1, "0"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Solver {
				s := NewSolver(tc.n, tc.k)
				s.Workers = 1
				if tc.cycleCap > 0 {
					s.MaxCycleLen = tc.cycleCap
				}
				if tc.tiers != "" {
					s.PendingTiers = nil
					for _, part := range strings.Split(tc.tiers, ",") {
						v, _ := strconv.Atoi(part)
						s.PendingTiers = append(s.PendingTiers, v)
					}
				}
				return s
			}
			straight, err := mk().Solve()
			if err != nil {
				t.Fatalf("uninterrupted solve: %v", err)
			}
			jp := filepath.Join(t.TempDir(), "drain.journal")
			kills := 0
			for spawns := 0; ; spawns++ {
				if spawns > 300 {
					t.Fatalf("drain did not converge after %d spawns", spawns)
				}
				crashAfter := 3 + rng.Intn(7)
				cmd := exec.Command(exe, "-test.run", "^TestFaultHelperProcess$", "-test.v")
				cmd.Env = append(os.Environ(),
					faultHelperEnv+"=1",
					"RINGROBOTS_FAULT_JOURNAL="+jp,
					"RINGROBOTS_FAULT_RING="+strconv.Itoa(tc.n),
					"RINGROBOTS_FAULT_ROBOTS="+strconv.Itoa(tc.k),
					"RINGROBOTS_FAULT_CYCLECAP="+strconv.Itoa(tc.cycleCap),
					"RINGROBOTS_FAULT_TIERS="+tc.tiers,
					"RINGROBOTS_FAULT_EVERY=2",
					"RINGROBOTS_FAULT_CRASH_AFTER="+strconv.Itoa(crashAfter),
				)
				out, err := cmd.CombinedOutput()
				if err == nil {
					break
				}
				var ee *exec.ExitError
				if errors.As(err, &ee) {
					if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
						kills++
						continue // crashed as injected; respawn to resume
					}
				}
				t.Fatalf("helper spawn %d failed: %v\n%s", spawns, err, out)
			}
			// The drain must actually have crossed crashes, not finished
			// in one clean leg — unless the whole tree is smaller than
			// the smallest crash point.
			if kills == 0 && straight.TablesExplored > 9 {
				t.Errorf("no SIGKILL landed across the drain (tree has %d tables)", straight.TablesExplored)
			}
			log, err := journal.Open(jp, journal.SyncNone)
			if err != nil {
				t.Fatalf("reopen journal: %v", err)
			}
			defer log.Close()
			last, ok := log.Last()
			if !ok || len(last) < 2 || last[0] != 'V' {
				t.Fatalf("journal does not end with a verdict record")
			}
			impossible := last[1]&1 != 0
			hasSurvivor := last[1]&2 != 0
			d := &ckptDecoder{b: last[2:]}
			tier := int(d.uvarint())
			tables := int(d.uvarint())
			var survivor Table
			if hasSurvivor {
				cnt := d.count(3)
				survivor = make(Table, cnt)
				for i := 0; i < cnt; i++ {
					obs := d.obsKey()
					survivor[obs] = d.decision()
				}
			}
			if d.err != nil {
				t.Fatalf("decode verdict record: %v", d.err)
			}
			if impossible != straight.Impossible || tier != straight.Tier {
				t.Errorf("crash drain verdict/tier (%v, %d) != uninterrupted (%v, %d)",
					impossible, tier, straight.Impossible, straight.Tier)
			}
			if tables != straight.TablesExplored {
				t.Errorf("crash drain TablesExplored %d != uninterrupted %d", tables, straight.TablesExplored)
			}
			if hasSurvivor != (straight.SurvivorTable != nil) {
				t.Errorf("crash drain survivor existence %v != uninterrupted %v", hasSurvivor, straight.SurvivorTable != nil)
			}
			if survivor != nil && !survivorHolds(mk(), tier, survivor) {
				t.Errorf("crash drain survivor does not survive re-analysis")
			}
			t.Logf("%s: %d kills before verdict (tables=%d)", tc.name, kills, tables)
		})
	}
}
