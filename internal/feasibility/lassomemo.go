package feasibility

import "sync"

// lassoMemo is a worker's exact cache of quotient-lasso validations
// (cycleIsFairAndBad). The check is a pure function of the words it
// reads, and the hunt meets the same short loops again and again: its
// 6/12/24 length caps rediscover them within a branch, and sibling
// branches share most of their state graph. On the (11,6) solve 96% of
// the checks repeat an earlier input.
//
// An entry maps a loop's content key (see searcher.lassoKey) to the
// verdict and the number of budget units the check charges; a hit
// replays those units, so budgets and checkpoints trip at exactly the
// unit they would have without the cache.
//
// The index is direct-mapped: each key hashes to one slot, and a new
// key evicts whatever held it. Keys vary in length, so they live in a
// circular word arena rather than in the slots. A slot's key is intact
// while fewer than lassoMemoWords words have been written since it;
// an older slot is a miss, and so is any slot whose key differs from
// the probe in any word. A hash match alone never answers. The table
// is fixed-size (about 56 KB) and allocates nothing after creation.
type lassoMemo struct {
	slots [lassoMemoSlots]lassoMemoSlot
	words [lassoMemoWords]uint64
	// head counts every word ever written to the arena: the next word
	// goes to words[head mod lassoMemoWords].
	head uint64
}

// lassoMemoSlot is one cached check. end is the arena head just after
// its key was written; a zero slot has len 0 and matches no key.
type lassoMemoSlot struct {
	hash  uint64
	end   uint64
	units int32
	len   uint16
	bad   bool
}

// Table geometry, sized on the (11,6) and (11,3) solves: 1,024 slots
// over a 4,096-word arena hit 94% of checks, against at most 96% (every
// distinct input missing once) for an unbounded table, and keep the
// pooled tables small enough not to show in a service's RSS.
const (
	lassoMemoSlots = 1 << 10
	lassoMemoWords = 1 << 12
	// lassoMemoMaxKey bounds the keys worth caching: a longer loop (over
	// 127 edges) bypasses the table rather than flushing an eighth of it.
	lassoMemoMaxKey = lassoMemoWords / 8
)

// lassoMemos recycles tables across tiers and solves, so a small
// /solve request does not pay for a fresh one. Sharing entries between
// solves is sound because the key holds everything the check reads,
// the ring size included.
var lassoMemos = sync.Pool{New: func() any { return new(lassoMemo) }}

// lassoHash mixes a key into the slot index and the stored hash.
func lassoHash(key []uint64) uint64 {
	h := uint64(len(key))
	for _, x := range key {
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h
}

// lookup returns key's slot and whether it holds key's answer.
func (m *lassoMemo) lookup(key []uint64, h uint64) (*lassoMemoSlot, bool) {
	s := &m.slots[h&(lassoMemoSlots-1)]
	if s.hash != h || int(s.len) != len(key) || m.head-(s.end-uint64(s.len)) > lassoMemoWords {
		return s, false
	}
	at := s.end - uint64(s.len)
	for i, x := range key {
		if m.words[(at+uint64(i))&(lassoMemoWords-1)] != x {
			return s, false
		}
	}
	return s, true
}

// store appends key to the arena and points slot s (lookup's result for
// key) at it with the check's answer.
func (m *lassoMemo) store(s *lassoMemoSlot, key []uint64, h uint64, bad bool, units int32) {
	for _, x := range key {
		m.words[m.head&(lassoMemoWords-1)] = x
		m.head++
	}
	*s = lassoMemoSlot{hash: h, end: m.head, units: units, len: uint16(len(key)), bad: bad}
}
