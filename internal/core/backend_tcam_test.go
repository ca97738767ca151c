package core

import (
	"math"
	"testing"

	"ofmtl/internal/xrand"
)

// prefixCover appends the minimal prefix cover of [lo, hi] within the
// aligned block of 2^k values at base, as (base, k) blocks in ascending
// order: a block inside the range is one prefix, a block straddling it
// splits into its two halves. It is the reference rangePrefixCount is
// checked against.
func prefixCover(lo, hi, base uint64, k int, out [][2]uint64) [][2]uint64 {
	top := base + (uint64(1)<<k - 1) // 1<<64 wraps to 0: top is the last value
	switch {
	case hi < base || lo > top:
		return out
	case lo <= base && top <= hi:
		return append(out, [2]uint64{base, uint64(k)})
	}
	out = prefixCover(lo, hi, base, k-1, out)
	return prefixCover(lo, hi, base+uint64(1)<<(k-1), k-1, out)
}

// checkCover asserts the blocks tile [lo, hi] exactly: each aligned, in
// order, with no gap and no overlap.
func checkCover(t *testing.T, lo, hi uint64, blocks [][2]uint64) {
	t.Helper()
	next := lo
	for i, b := range blocks {
		size := uint64(1) << b[1]
		if b[1] < 64 && b[0]%size != 0 {
			t.Fatalf("[%d,%d]: block %d/%d misaligned", lo, hi, b[0], b[1])
		}
		if b[0] != next {
			t.Fatalf("[%d,%d]: block %d starts at %d, want %d", lo, hi, i, b[0], next)
		}
		next = b[0] + size
	}
	if last := blocks[len(blocks)-1]; last[0]+(uint64(1)<<last[1]-1) != hi {
		t.Fatalf("[%d,%d]: the cover ends at %d", lo, hi, last[0]+(uint64(1)<<last[1]-1))
	}
}

func TestRangePrefixCount(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		want   int
	}{
		{0, 65535, 1},
		{80, 80, 1},
		{0, 1023, 1},
		{1024, 65535, 6},
		{1, 65534, 30}, // the 16-bit worst case: 2w-2
		{0, math.MaxUint64, 1},
		{1, math.MaxUint64 - 1, 126}, // the 64-bit worst case
		{math.MaxUint64, math.MaxUint64, 1},
	}
	for _, c := range cases {
		if got := rangePrefixCount(c.lo, c.hi); got != c.want {
			t.Errorf("rangePrefixCount(%d, %d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
		cover := prefixCover(c.lo, c.hi, 0, 64, nil)
		checkCover(t, c.lo, c.hi, cover)
		if len(cover) != c.want {
			t.Errorf("[%d,%d]: reference cover has %d prefixes, want %d", c.lo, c.hi, len(cover), c.want)
		}
	}
}

// Property: for arbitrary 16-bit and 64-bit ranges, rangePrefixCount is
// the size of the minimal prefix cover that tiles [lo, hi] exactly, and
// stays within the 2w-2 bound.
func TestRangePrefixCountProperty(t *testing.T) {
	rng := xrand.New(2718)
	for trial := 0; trial < 1000; trial++ {
		var lo, hi uint64
		w := 16
		if trial%2 == 0 {
			lo = uint64(rng.Intn(65536))
			hi = lo + uint64(rng.Intn(65536-int(lo)))
		} else {
			w = 64
			lo, hi = rng.Uint64(), rng.Uint64()
			if lo > hi {
				lo, hi = hi, lo
			}
		}
		cover := prefixCover(lo, hi, 0, w, nil)
		checkCover(t, lo, hi, cover)
		got := rangePrefixCount(lo, hi)
		if got != len(cover) {
			t.Fatalf("rangePrefixCount(%d, %d) = %d, the minimal cover has %d", lo, hi, got, len(cover))
		}
		if got > 2*w-2 {
			t.Fatalf("[%d,%d]: %d prefixes exceeds 2w-2 for w=%d", lo, hi, got, w)
		}
	}
}
