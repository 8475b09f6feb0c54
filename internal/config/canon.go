package config

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"strings"
	"sync/atomic"

	"ringrobots/internal/ring"
)

// This file holds the linear-time kernels of the configuration algebra:
// Booth's least-cyclic-rotation algorithm (supermin and its anchors in
// O(k) instead of the naive O(k²) scan over all 2k views), a KMP
// doubled-string periodicity check, and the compact comparable CanonKey
// replacing string map keys in the enumeration, transition and solver
// layers. Results are computed once per Config and memoized; the naive
// reference implementations are retained in oracle_test.go and cross-checked
// by differential tests.

// canonData is everything the algebra derives from the interval cycle.
// It is computed in one pass on first touch and shared by all copies of
// the owning Config (Config is immutable, so the data never invalidates).
type canonData struct {
	// g is the interval cycle (g[i] = empty nodes between occupied node i
	// and occupied node i+1, clockwise). Shared: callers must not modify.
	g View
	// supermin is the lexicographically minimal view over all 2k anchors.
	// Shared: callers must not modify.
	supermin View
	// anchors lists every (node, direction) reading realizing supermin,
	// ordered by node then CW before CCW. Shared: callers must not modify.
	anchors []Anchor
	// period is the smallest d in [1, k] such that rotating the interval
	// cycle by d leaves it unchanged; period == k iff aperiodic (d = k is
	// the trivial full rotation). It always divides k.
	period int
	// symmetric reports a geometric axis of symmetry (Property 1(ii)).
	symmetric bool
	// key is the canonical identity of the configuration class.
	key CanonKey
}

// canonCell carries the lazily-filled canonData pointer. It lives behind
// a pointer so that by-value copies of a Config share one cache slot.
// Concurrent fillers may race benignly: each computes identical data and
// the atomic store keeps readers safe.
type canonCell struct {
	p atomic.Pointer[canonData]
}

var emptyCanon = canonData{}

// canon returns the memoized derived data, computing it on first use.
func (c Config) canon() *canonData {
	if c.cc == nil {
		// Zero-value Config: compute without caching (defensive; real
		// Configs are built by New and always carry a cell).
		return computeCanon(c)
	}
	if d := c.cc.p.Load(); d != nil {
		return d
	}
	d := computeCanon(c)
	c.cc.p.Store(d)
	return d
}

// computeCanon derives the interval cycle, supermin view, anchors,
// periodicity, symmetry and canonical key in O(k) time and a constant
// number of allocations.
func computeCanon(c Config) *canonData {
	k := len(c.nodes)
	if k == 0 {
		return &emptyCanon
	}
	n := c.r.N()
	g := make(View, k)
	if k == 1 {
		g[0] = n - 1
	} else {
		for i := 0; i < k-1; i++ {
			g[i] = c.nodes[i+1] - c.nodes[i] - 1
		}
		g[k-1] = n - c.nodes[k-1] + c.nodes[0] - 1
	}

	// One scratch block for the Booth failure buffer (2k), the reversed
	// cycle (k) and the KMP failure function (k).
	scratch := make([]int, 4*k)
	boothBuf := scratch[:2*k]
	rev := scratch[2*k : 3*k]
	for t := 0; t < k; t++ {
		rev[t] = g[k-1-t]
	}

	sCW := leastRotation(g, boothBuf)
	sCCW := leastRotation(rev, boothBuf)

	// Compare the minimal CW reading with the minimal CCW reading.
	cmp := 0
	for j := 0; j < k; j++ {
		a, b := g[(sCW+j)%k], rev[(sCCW+j)%k]
		if a != b {
			if a < b {
				cmp = -1
			} else {
				cmp = 1
			}
			break
		}
	}

	sm := make(View, k)
	if cmp <= 0 {
		for j := range sm {
			sm[j] = g[(sCW+j)%k]
		}
	} else {
		for j := range sm {
			sm[j] = rev[(sCCW+j)%k]
		}
	}

	p := cyclicPeriod(g, scratch[3*k:])

	// Rotations equal to the minimal one start exactly at the minimal
	// start shifted by multiples of the cyclic period (which divides k),
	// for the cycle and its reversal alike.
	nAnchors := 0
	if cmp <= 0 {
		nAnchors += k / p
	}
	if cmp >= 0 {
		nAnchors += k / p
	}
	anchors := make([]Anchor, 0, nAnchors)
	if cmp <= 0 {
		for s := sCW % p; s < k; s += p {
			anchors = append(anchors, Anchor{Node: c.nodes[s], Dir: ring.CW})
		}
	}
	if cmp >= 0 {
		// The CCW reading from occupied-node index i is the rotation of
		// the reversed cycle starting at t = (k - i) mod k.
		for t := sCCW % p; t < k; t += p {
			anchors = append(anchors, Anchor{Node: c.nodes[(k-t)%k], Dir: ring.CCW})
		}
	}
	sortAnchors(anchors)

	return &canonData{
		g:         g,
		supermin:  sm,
		anchors:   anchors,
		period:    p,
		symmetric: cmp == 0,
		key:       KeyOf(sm),
	}
}

// sortAnchors orders anchors by node, CW before CCW — the discovery
// order of the naive double scan, preserved for compatibility.
func sortAnchors(a []Anchor) {
	// Insertion sort: anchor lists are tiny (usually 1 or 2 entries).
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && anchorLess(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func anchorLess(x, y Anchor) bool {
	if x.Node != y.Node {
		return x.Node < y.Node
	}
	return x.Dir == ring.CW && y.Dir == ring.CCW
}

// leastRotation returns the start index of the lexicographically least
// rotation of s using Booth's algorithm: O(len(s)) time, no allocation
// beyond the caller-provided failure buffer f (len ≥ 2·len(s)).
func leastRotation(s []int, f []int) int {
	n := len(s)
	if n <= 1 {
		return 0
	}
	f = f[:2*n]
	for i := range f {
		f[i] = -1
	}
	k := 0
	for j := 1; j < 2*n; j++ {
		sj := s[j%n]
		i := f[j-k-1]
		for i != -1 && sj != s[(k+i+1)%n] {
			if sj < s[(k+i+1)%n] {
				k = j - i - 1
			}
			i = f[i]
		}
		if i == -1 && sj != s[k%n] {
			if sj < s[k%n] {
				k = j
			}
			f[j-k] = -1
		} else {
			f[j-k] = i + 1
		}
	}
	return k % n
}

// cyclicPeriod returns the smallest d ≥ 1 with g equal to its rotation
// by d, or len(g) when only the trivial full rotation fixes g. It always
// divides len(g). Implemented as a KMP search for g inside its doubling,
// using the caller-provided failure buffer (len ≥ len(g)).
func cyclicPeriod(g View, fail []int) int {
	k := len(g)
	if k <= 1 {
		return k
	}
	fail = fail[:k]
	fail[0] = 0
	for i := 1; i < k; i++ {
		j := fail[i-1]
		for j > 0 && g[i] != g[j] {
			j = fail[j-1]
		}
		if g[i] == g[j] {
			j++
		}
		fail[i] = j
	}
	j := 0
	for i := 1; i < 2*k; i++ {
		ch := g[i%k]
		for j > 0 && ch != g[j] {
			j = fail[j-1]
		}
		if ch == g[j] {
			j++
		}
		if j == k {
			if d := i - k + 1; d < k {
				return d
			}
			return k
		}
	}
	return k
}

// CanonKey is a compact comparable identity of an interval sequence.
// Keys of supermin views identify configuration classes: two exclusive
// configurations are equivalent up to rotation and reflection iff their
// Config.CanonKey values are equal. Small sequences pack into a single
// machine word; larger ones fall back to a compact byte string. The zero
// CanonKey is the key of no valid view.
type CanonKey struct {
	word uint64
	str  string
}

// Packed word layout: [ k : 6 bits | bitsPer : 6 bits | payload : ≤52 bits ]
// with entry i occupying bits [i·bitsPer, (i+1)·bitsPer). The layout is
// injective: equal words imply equal (k, bitsPer) and therefore equal
// entry sequences.
const (
	keyKShift    = 58
	keyBitsShift = 52
	keyPayload   = 52
)

// KeyOf returns the canonical key of view v (any interval sequence; for
// configuration identity use Config.CanonKey, which keys the supermin).
func KeyOf(v View) CanonKey {
	k := len(v)
	maxq := 0
	for _, q := range v {
		if q > maxq {
			maxq = q
		}
	}
	b := bits.Len(uint(maxq))
	if b == 0 {
		b = 1
	}
	if k < 64 && k*b <= keyPayload {
		w := uint64(k)<<keyKShift | uint64(b)<<keyBitsShift
		for i, q := range v {
			w |= uint64(q) << (uint(i) * uint(b))
		}
		return CanonKey{word: w}
	}
	buf := make([]byte, 0, 2*k+2)
	buf = binary.AppendUvarint(buf, uint64(k))
	for _, q := range v {
		buf = binary.AppendUvarint(buf, uint64(q))
	}
	return CanonKey{str: string(buf)}
}

// IsZero reports whether the key is the zero value (no view).
func (ck CanonKey) IsZero() bool { return ck.word == 0 && ck.str == "" }

// Less orders keys totally (an arbitrary but deterministic order, used
// for reproducible tie-breaking in searches).
func (ck CanonKey) Less(o CanonKey) bool {
	if ck.word != o.word {
		return ck.word < o.word
	}
	return ck.str < o.str
}

// Hash mixes the key into a 64-bit value for sharding and open
// addressing (splitmix-style finalizer over the packed word, folding in
// the fallback string when present). Not a cryptographic hash; equal
// keys hash equal, distinct keys collide only by chance.
func (ck CanonKey) Hash() uint64 {
	h := ck.word
	if ck.str != "" {
		for i := 0; i < len(ck.str); i++ {
			h = (h ^ uint64(ck.str[i])) * 0x100000001b3
		}
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// View decodes the key back into the interval sequence it encodes.
func (ck CanonKey) View() View {
	if ck.str != "" {
		r := strings.NewReader(ck.str)
		k64, err := binary.ReadUvarint(r)
		if err != nil {
			return nil
		}
		v := make(View, k64)
		for i := range v {
			q, err := binary.ReadUvarint(r)
			if err != nil {
				return nil
			}
			v[i] = int(q)
		}
		return v
	}
	if ck.word == 0 {
		return nil
	}
	k := int(ck.word >> keyKShift)
	b := uint(ck.word>>keyBitsShift) & 63
	mask := uint64(1)<<b - 1
	v := make(View, k)
	for i := 0; i < k; i++ {
		v[i] = int((ck.word >> (uint(i) * b)) & mask)
	}
	return v
}

// String renders the decoded view in tuple notation (for diagnostics).
func (ck CanonKey) String() string {
	if ck.IsZero() {
		return "(-)"
	}
	return ck.View().String()
}

// CanonKey returns the compact canonical identity of the configuration
// class (the key of the supermin view), memoized with the rest of the
// canonical data.
func (c Config) CanonKey() CanonKey {
	return c.canon().key
}

// AppendBinary appends a self-delimiting encoding of the key to b and
// returns the extended slice. The encoding round-trips exactly through
// DecodeCanonKey (word-packed and string-fallback keys alike), which is
// what the solver's checkpoint serialization relies on.
func (ck CanonKey) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, ck.word)
	b = binary.AppendUvarint(b, uint64(len(ck.str)))
	return append(b, ck.str...)
}

// DecodeCanonKey decodes a key written by AppendBinary, returning the
// key and the number of bytes consumed.
func DecodeCanonKey(b []byte) (CanonKey, int, error) {
	word, n := binary.Uvarint(b)
	if n <= 0 {
		return CanonKey{}, 0, errBadKey
	}
	off := n
	slen, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return CanonKey{}, 0, errBadKey
	}
	off += n
	if slen > uint64(len(b)-off) {
		return CanonKey{}, 0, errBadKey
	}
	ck := CanonKey{word: word, str: string(b[off : off+int(slen)])}
	return ck, off + int(slen), nil
}

var errBadKey = errors.New("config: truncated CanonKey encoding")
