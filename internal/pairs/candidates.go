package pairs

import (
	"math"
	"slices"
)

// Candidate is one scored entry of a v-pin's candidate list.
type Candidate struct {
	// Other is the candidate partner v-pin.
	Other int32
	// P is the ensemble probability p(v, v') of eq. (3).
	P float32
	// D is the ManhattanVpin distance, used by the proximity attack.
	D float32
}

// CompareCandidates is the candidate-list order: descending probability,
// ties broken by ascending partner index. Other is unique within a list,
// so this is a total order and every sorting algorithm — and both scoring
// backends — produce exactly the same list.
func CompareCandidates(x, y Candidate) int {
	if x.P != y.P {
		if x.P > y.P {
			return -1
		}
		return 1
	}
	return int(x.Other) - int(y.Other)
}

// LoCCap is the per-v-pin candidate-list bound for a design with n v-pins:
// maxLoCFrac*n, floored at 32 entries so tiny designs keep usable lists,
// and never more than n. Every consumer of retained candidate lists (the
// attack engine, the two-level pruning stage) must use the same bound or
// their lists diverge.
func LoCCap(n int, maxLoCFrac float64) int {
	capPer := int(maxLoCFrac * float64(n))
	if capPer < 32 {
		capPer = 32
	}
	if capPer > n {
		capPer = n
	}
	return capPer
}

// TopK keeps the Cap first candidates of the canonical CompareCandidates
// order. It appends until full; the first push that finds it full turns it,
// once, into a max-heap on rankKey whose root is the worst retained
// candidate (lowest P, ties by largest Other). The retained set — not just
// its sorted presentation — therefore equals the first Cap entries of
// sorting everything, regardless of push order. A TopK that never
// overflows does no heap work at all. ScoreLists keeps one per target over
// a window of its shared arena.
type TopK struct {
	// Cap bounds the retained candidates and must be positive.
	Cap  int
	c    []Candidate
	heap bool // c is heap-ordered
}

// Reset empties the heap and sets its capacity, keeping the backing array
// so a worker can reuse one TopK across v-pins without reallocating. Any
// slice previously returned by Sorted is invalidated.
func (h *TopK) Reset(capacity int) {
	h.Cap = capacity
	h.c = h.c[:0]
	h.heap = false
}

// Len returns the number of retained candidates.
func (h *TopK) Len() int { return len(h.c) }

// Push offers a candidate, evicting the canonically-worst retained one when
// full.
func (h *TopK) Push(cand Candidate) {
	if len(h.c) < h.Cap {
		h.c = append(h.c, cand)
		return
	}
	if !h.heap {
		for i := len(h.c)/2 - 1; i >= 0; i-- {
			siftDown(h.c, i)
		}
		h.heap = true
	}
	if rankKey(cand) < rankKey(h.c[0]) {
		h.c[0] = cand
		siftDown(h.c, 0)
	}
}

// Sorted destroys the heap order and returns the retained candidates in
// canonical CompareCandidates order. The returned slice aliases the heap's
// backing array: it is valid until the next Push or Reset, so callers that
// keep lists must copy them out.
func (h *TopK) Sorted() []Candidate {
	slices.SortFunc(h.c, CompareCandidates)
	h.heap = false
	return h.c
}

// siftDown restores the max-heap on rankKey below h[i].
func siftDown(h []Candidate, i int) {
	ki := rankKey(h[i])
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		kc := rankKey(h[c])
		if r := c + 1; r < len(h) {
			if kr := rankKey(h[r]); kr > kc {
				c, kc = r, kr
			}
		}
		if kc <= ki {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// rankKey packs a candidate's place in the canonical order into one
// integer: ascending rankKey is CompareCandidates order. The high word is P
// mapped to an unsigned integer that falls as P rises (−0 folded to +0
// first, since the order treats them as equal); the low word is Other,
// which breaks P ties by ascending partner.
func rankKey(c Candidate) uint64 {
	b := math.Float32bits(c.P)
	if b == 1<<31 {
		b = 0
	}
	return uint64(flipP(b))<<32 | uint64(uint32(c.Other))
}

// rankP recovers P from a rank key (a −0 comes back as +0).
func rankP(k uint64) float32 { return math.Float32frombits(flipP(uint32(k >> 32))) }

// flipP maps float32 bits to an unsigned integer that falls as the float
// rises: a non-negative float's magnitude bits are inverted, a negative
// float's bits (sign set, growing with magnitude) are kept. It is its own
// inverse.
func flipP(b uint32) uint32 { return b ^ ^uint32(int32(b)>>31)>>1 }
