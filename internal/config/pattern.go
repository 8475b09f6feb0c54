package config

import (
	"fmt"
	"strings"
)

// The paper (§3.2) describes families of views with a small pattern
// language over integer symbols:
//
//	x      — the literal interval x
//	x*     — x repeated zero or more times
//	x+     — x repeated one or more times
//	x{m}   — x repeated exactly m times
//
// A configuration belongs to a pattern if one of its 2k views matches.
// Patterns are used by Lemmas 4 and 5 (e.g. (0,1,1⁺,2) and
// (0^{ℓ1},1,{0^{ℓ1−1},1}⁺,0^{ℓ1−2},1)) and reproduced here so the lemma
// statements can be verified mechanically.

// PatternItem is one element of a Pattern.
type PatternItem struct {
	// Seq is the unit being repeated: one or more interval lengths.
	Seq []int
	// Min and Max bound how many times Seq repeats; Max < 0 means
	// unbounded.
	Min, Max int
}

// Pattern is a sequence of pattern items matched against whole views.
type Pattern []PatternItem

// Lit returns a pattern item matching exactly the literal sequence q.
func Lit(q ...int) PatternItem { return PatternItem{Seq: q, Min: 1, Max: 1} }

// Star returns an item matching zero or more repetitions of seq.
func Star(seq ...int) PatternItem { return PatternItem{Seq: seq, Min: 0, Max: -1} }

// Plus returns an item matching one or more repetitions of seq.
func Plus(seq ...int) PatternItem { return PatternItem{Seq: seq, Min: 1, Max: -1} }

// Rep returns an item matching exactly m repetitions of seq.
func Rep(m int, seq ...int) PatternItem { return PatternItem{Seq: seq, Min: m, Max: m} }

// MatchView reports whether view v matches the pattern exactly
// (anchored at both ends).
func (p Pattern) MatchView(v View) bool {
	return matchFrom(p, v, 0)
}

// matchFrom reports whether v[pos:] matches p exactly by backtracking
// over each item's repetition count. That is exponential on patterns
// with several unbounded items over self-overlapping units; each of the
// paper's pattern families has a single unbounded item.
func matchFrom(p Pattern, v View, pos int) bool {
	if len(p) == 0 {
		return pos == len(v)
	}
	it := p[0]
	// Try every admissible repetition count, shortest first.
	count := 0
	for {
		if count >= it.Min {
			if matchFrom(p[1:], v, pos) {
				return true
			}
		}
		if it.Max >= 0 && count == it.Max {
			return false
		}
		// Consume one more repetition of it.Seq.
		if pos+len(it.Seq) > len(v) {
			return false
		}
		for i, q := range it.Seq {
			if v[pos+i] != q {
				return false
			}
		}
		pos += len(it.Seq)
		count++
	}
}

// Matches reports whether any view of configuration c matches p —
// the paper's "C belongs to pattern P".
func (c Config) Matches(p Pattern) bool {
	for _, v := range c.Views() {
		if matchFrom(p, v, 0) {
			return true
		}
	}
	return false
}

// String renders the pattern roughly in the paper's notation.
func (p Pattern) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, it := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		unit := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(it.Seq)), ","), "[]")
		switch {
		case it.Min == 1 && it.Max == 1:
			b.WriteString(unit)
		case it.Min == 0 && it.Max < 0:
			fmt.Fprintf(&b, "{%s}*", unit)
		case it.Min == 1 && it.Max < 0:
			fmt.Fprintf(&b, "{%s}+", unit)
		case it.Min == it.Max:
			fmt.Fprintf(&b, "{%s}{%d}", unit, it.Min)
		default:
			fmt.Fprintf(&b, "{%s}{%d,%d}", unit, it.Min, it.Max)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Lemma4Pattern5 is pattern (5) of Lemma 4: (0, 1, 1⁺, 2).
func Lemma4Pattern5() Pattern {
	return Pattern{Lit(0), Lit(1), Plus(1), Lit(2)}
}

// Lemma4Pattern6 is pattern (6) of Lemma 4, parameterized by ℓ1 ≥ 2:
// (0^{ℓ1}, 1, {0^{ℓ1−1},1}⁺, 0^{ℓ1−2}, 1).
func Lemma4Pattern6(l1 int) (Pattern, error) {
	if l1 < 2 {
		return nil, fmt.Errorf("config: Lemma 4 pattern (6) needs ℓ1 >= 2, got %d", l1)
	}
	unit := make([]int, l1) // 0^{ℓ1−1} followed by 1
	unit[l1-1] = 1
	return Pattern{Rep(l1, 0), Lit(1), PatternItem{Seq: unit, Min: 1, Max: -1}, Rep(l1-2, 0), Lit(1)}, nil
}

// Lemma5Pattern1 is the first family of Lemma 5: (0, 1, 1, 1⁺, 2).
func Lemma5Pattern1() Pattern {
	return Pattern{Lit(0), Lit(1), Lit(1), Plus(1), Lit(2)}
}
