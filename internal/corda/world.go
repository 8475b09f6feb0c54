package corda

import (
	"fmt"
	"sort"

	"ringrobots/internal/config"
	"ringrobots/internal/ring"
)

// World is the simulator's ground truth: where every robot is. Robots have
// identities here (indices) purely for bookkeeping; nothing about an
// identity ever reaches an Algorithm.
type World struct {
	r   ring.Ring
	pos []int // pos[id] = node occupied by robot id
	cnt []int // cnt[node] = number of robots on node

	// exclusive, when set, makes any move onto an occupied node a
	// CollisionError. Cleared for gathering, which creates multiplicities
	// on purpose.
	exclusive bool
	// multiplicityDetection controls whether snapshots carry the local
	// multiplicity bit (§2.1: the capability needed for gathering).
	multiplicityDetection bool

	// cfg memoizes the current configuration between moves: every Look
	// needs it, and between two moves an arbitrary number of Looks occur.
	cfg      config.Config
	cfgValid bool
	// keyBuf is scratch for StateKey (reused; the key itself is fresh).
	keyBuf []byte
	// snapBufs is the per-robot view-buffer pool behind Snapshot:
	// snapBufs[id] holds the two view buffers robot id's snapshots alias,
	// so steady-state Looks allocate nothing. See Snapshot for the
	// ownership rule.
	snapBufs []snapBuf
}

// snapBuf is one robot's pair of reusable view buffers.
type snapBuf struct {
	lo, hi config.View
}

// NewWorld places robots at the given nodes of an n-node ring (positions
// may repeat only when exclusive is false).
func NewWorld(n int, positions []int, exclusive bool) (*World, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("corda: no robots")
	}
	r := ring.New(n)
	w := &World{
		r:         r,
		pos:       make([]int, len(positions)),
		cnt:       make([]int, n),
		exclusive: exclusive,
	}
	for id, u := range positions {
		u = r.Norm(u)
		if exclusive && w.cnt[u] > 0 {
			return nil, fmt.Errorf("corda: exclusive world has two robots on node %d", u)
		}
		w.pos[id] = u
		w.cnt[u]++
	}
	return w, nil
}

// FromConfig builds an exclusive world with one robot per occupied node of
// c, identities assigned in increasing node order.
func FromConfig(c config.Config, exclusive bool) *World {
	w, err := NewWorld(c.N(), c.Nodes(), exclusive)
	if err != nil {
		panic(err) // c is a valid exclusive configuration by construction
	}
	return w
}

// EnableMultiplicityDetection turns on the local multiplicity bit in
// snapshots (required by the gathering task).
func (w *World) EnableMultiplicityDetection() { w.multiplicityDetection = true }

// N returns the ring size.
func (w *World) N() int { return w.r.N() }

// K returns the number of robots.
func (w *World) K() int { return len(w.pos) }

// Ring returns the underlying ring.
func (w *World) Ring() ring.Ring { return w.r }

// Exclusive reports whether the world enforces the exclusivity property.
func (w *World) Exclusive() bool { return w.exclusive }

// Position returns the node of robot id.
func (w *World) Position(id int) int { return w.pos[id] }

// Positions returns all robot positions indexed by identity (fresh slice).
func (w *World) Positions() []int {
	out := make([]int, len(w.pos))
	copy(out, w.pos)
	return out
}

// CountAt returns the number of robots on node u.
func (w *World) CountAt(u int) int { return w.cnt[w.r.Norm(u)] }

// Config returns the current configuration (the set of occupied nodes).
// It is memoized between moves, so consecutive Looks share one Config
// value and its cached supermin/classification data.
func (w *World) Config() config.Config {
	if w.cfgValid {
		return w.cfg
	}
	occupied := make([]int, 0, len(w.pos))
	for u, c := range w.cnt {
		if c > 0 {
			occupied = append(occupied, u)
		}
	}
	sort.Ints(occupied)
	c, err := config.New(w.r.N(), occupied...)
	if err != nil {
		panic(err)
	}
	w.cfg, w.cfgValid = c, true
	return c
}

// Gathered reports whether all robots share one node.
func (w *World) Gathered() bool {
	first := w.pos[0]
	for _, u := range w.pos[1:] {
		if u != first {
			return false
		}
	}
	return true
}

// Snapshot builds what robot id perceives: its two directional views in
// lexicographic order plus (if enabled) the local multiplicity bit. The
// second return value is the simulator direction realizing the Lo view,
// needed to apply the robot's decision; it never reaches the algorithm.
//
// Ownership rule: the returned snapshot's views alias robot id's slot in
// a per-robot buffer pool and stay valid only until the next
// Snapshot(id) call for the SAME id. That is exactly the lifetime of one
// Look-Compute step, and keeping one slot per robot means another
// robot's Look never invalidates it: a schedule that interleaves several
// robots' Looks and Computes needs no copies, because robot id cannot
// Look again before finishing the Compute on its previous snapshot.
// Callers that retain a snapshot across cycles (or share it between
// robots) must Clone it.
func (w *World) Snapshot(id int) (Snapshot, ring.Direction) {
	c := w.Config()
	u := w.pos[id]
	if w.snapBufs == nil {
		w.snapBufs = make([]snapBuf, len(w.pos))
	}
	buf := &w.snapBufs[id]
	cw := c.ViewFromInto(u, ring.CW, buf.lo)
	ccw := c.ViewFromInto(u, ring.CCW, buf.hi)
	buf.lo, buf.hi = cw, ccw
	lo, loDir := cw, ring.CW
	hi := ccw
	if ccw.Less(cw) {
		lo, hi, loDir = ccw, cw, ring.CCW
	}
	return Snapshot{
		Lo:           lo,
		Hi:           hi,
		Multiplicity: w.multiplicityDetection && w.cnt[u] > 1,
	}, loDir
}

// MoveRobot moves robot id one step in direction d, enforcing exclusivity
// if enabled. It returns the executed event.
func (w *World) MoveRobot(id int, d ring.Direction) (MoveEvent, error) {
	from := w.pos[id]
	to := w.r.Step(from, d)
	if w.exclusive && w.cnt[to] > 0 {
		return MoveEvent{}, &CollisionError{Robot: id, Node: to}
	}
	w.cnt[from]--
	w.cnt[to]++
	w.pos[id] = to
	w.cfgValid = false
	return MoveEvent{Robot: id, From: from, To: to}, nil
}

// Clone returns a deep copy of the world.
func (w *World) Clone() *World {
	pos := make([]int, len(w.pos))
	copy(pos, w.pos)
	cnt := make([]int, len(w.cnt))
	copy(cnt, w.cnt)
	return &World{
		r:                     w.r,
		pos:                   pos,
		cnt:                   cnt,
		exclusive:             w.exclusive,
		multiplicityDetection: w.multiplicityDetection,
		cfg:                   w.cfg,
		cfgValid:              w.cfgValid,
	}
}

// StateKey returns a compact identity-sensitive key of the world state,
// used for cycle detection in perpetual-task verification. The key is a
// binary string (four bytes per robot position, exact for any ring an
// int can index), far cheaper to build and hash than the former
// fmt.Sprint rendering. Unlike the feasibility solver's packed game
// state (whose bitmask words cap it at n ≤ 32), StateKey scales with
// the ring: verification worlds are not width-limited.
func (w *World) StateKey() string {
	if cap(w.keyBuf) < 4*len(w.pos) {
		w.keyBuf = make([]byte, 4*len(w.pos))
	}
	buf := w.keyBuf[:4*len(w.pos)]
	for i, u := range w.pos {
		buf[4*i] = byte(u)
		buf[4*i+1] = byte(u >> 8)
		buf[4*i+2] = byte(u >> 16)
		buf[4*i+3] = byte(u >> 24)
	}
	return string(buf)
}

func (w *World) String() string {
	return fmt.Sprintf("world{n=%d, robots=%v}", w.r.N(), w.pos)
}
