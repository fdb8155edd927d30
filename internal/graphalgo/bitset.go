package graphalgo

// Bitset is a word-packed membership set over a dense integer universe —
// the frontier/visited representation shared by the cascade kernels and the
// cover scans. One bit per element means 32× fewer scratch bytes than the
// uint32 epoch-mark scheme it replaces, so a cascade's membership tests
// touch 32× fewer cache lines; the trade is that a bitset must be cleared
// explicitly. The kernels clear incrementally by replaying the list of set
// bits they already track (the frontier queue, the covered-set walk), which
// costs O(bits set), not O(universe).
type Bitset struct {
	words []uint64
}

// NewBitset returns a zeroed bitset over the universe [0, n).
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)>>6)}
}

// Test reports whether bit i is set.
func (b Bitset) Test(i int) bool {
	return b.words[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b Bitset) Set(i int) {
	b.words[uint(i)>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (b Bitset) Clear(i int) {
	b.words[uint(i)>>6] &^= 1 << (uint(i) & 63)
}

// TestAndSet sets bit i and reports whether it was already set — the fused
// visited-check of the cascade inner loops.
func (b Bitset) TestAndSet(i int) bool {
	w := uint(i) >> 6
	m := uint64(1) << (uint(i) & 63)
	old := b.words[w]
	b.words[w] = old | m
	return old&m != 0
}

// SetIf sets bit i when cond holds and returns 1 if that changed the bit,
// 0 otherwise, without branching on cond or on the bit: the cascade kernels
// whose live/visited outcomes are coin flips would otherwise mispredict a
// branch on most arcs.
func (b Bitset) SetIf(i int, cond bool) int {
	c := 0
	if cond {
		c = 1
	}
	w, sh := uint(i)>>6, uint(i)&63
	old := b.words[w]
	added := uint64(c) &^ (old >> sh)
	b.words[w] = old | added<<sh
	return int(added)
}

// Len returns the universe size rounded up to the word stride.
func (b Bitset) Len() int { return len(b.words) << 6 }

// Bytes returns the resident footprint (capacity-based, like SetStore.Bytes).
func (b Bitset) Bytes() int64 { return int64(cap(b.words)) * 8 }

// Reset zeroes every word — the O(universe) fallback for callers without an
// incremental clear list.
func (b Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
