package memmodel

import (
	"testing"

	"ofmtl/internal/label"
	"ofmtl/internal/mbt"
)

func buildTrie(t *testing.T, values []uint64) *mbt.Trie {
	t.Helper()
	tr := mbt.MustNew(mbt.Config16())
	for i, v := range values {
		if err := tr.Insert(v, 16, label.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestEmptyTrieCost(t *testing.T) {
	tr := mbt.MustNew(mbt.Config16())
	c := DefaultTrieCostModel.Cost(tr.Stats(), 0, nil)
	// Only the root array exists: 32 slots. With no labels and no next
	// level population the entry is flag-only plus a zero-width pointer.
	if c.StoredNodes != 32 {
		t.Errorf("StoredNodes = %d, want 32", c.StoredNodes)
	}
	if c.Levels[0].StoredNodes != 32 {
		t.Errorf("L1 nodes = %d", c.Levels[0].StoredNodes)
	}
}

func TestL1CostMatchesPaperScale(t *testing.T) {
	// The paper: L1 holds at most 32 stored nodes and consumes 832 bits,
	// i.e. 26 bits per entry. Our reconstruction with a worst-case-sized
	// pointer (10 bits for 1024 L2 slots) and a 13-bit label (8192 unique
	// values) gives 24 bits per entry — within one bit-field rounding of
	// the paper's figure. Assert the reconstruction stays in that band.
	tr := mbt.MustNew(mbt.Config16())
	// Populate enough distinct values to allocate every L2 array.
	for i := 0; i < 4096; i++ {
		v := uint64(i * 16)
		if err := tr.Insert(v, 16, label.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := DefaultTrieCostModel.Cost(tr.Stats(), 6177, nil)
	l1 := c.Levels[0]
	if l1.StoredNodes != 32 {
		t.Fatalf("L1 stored nodes = %d, want 32", l1.StoredNodes)
	}
	if l1.BitsPerEntry < 20 || l1.BitsPerEntry > 30 {
		t.Errorf("L1 bits/entry = %d, want within [20,30] (paper: 26)", l1.BitsPerEntry)
	}
	if l1.Bits >= 1000 {
		t.Errorf("L1 bits = %d, paper says < 1 Kbit", l1.Bits)
	}
}

func TestLeafLevelHasNoPointer(t *testing.T) {
	tr := buildTrie(t, []uint64{0x1234, 0xFFFF, 0x0001})
	c := DefaultTrieCostModel.Cost(tr.Stats(), 3, nil)
	last := c.Levels[len(c.Levels)-1]
	if last.PtrBits != 0 {
		t.Errorf("leaf pointer bits = %d, want 0", last.PtrBits)
	}
	if c.Levels[0].PtrBits == 0 {
		t.Error("L1 should carry a child pointer")
	}
}

func TestWorstCasePointerSizing(t *testing.T) {
	tr := buildTrie(t, []uint64{0x1234})
	own := DefaultTrieCostModel.Cost(tr.Stats(), 1, nil)
	// Worst case: pretend the lower trie populates 1024 L2 slots and
	// 65536 L3 slots; pointers must grow accordingly.
	worst := DefaultTrieCostModel.Cost(tr.Stats(), 1, []int{1024, 65536})
	if worst.Levels[0].PtrBits <= own.Levels[0].PtrBits {
		t.Errorf("worst-case L1 pointer (%d) should exceed own-population pointer (%d)",
			worst.Levels[0].PtrBits, own.Levels[0].PtrBits)
	}
	if worst.Levels[0].PtrBits != 10 {
		t.Errorf("L1 pointer for 1024-slot L2 = %d, want 10", worst.Levels[0].PtrBits)
	}
	if worst.Levels[1].PtrBits != 16 {
		t.Errorf("L2 pointer for 65536-slot L3 = %d, want 16", worst.Levels[1].PtrBits)
	}
}

func TestMinLabelBits(t *testing.T) {
	tr := buildTrie(t, []uint64{1})
	m := TrieCostModel{FlagBits: 1, MinLabelBits: 16}
	c := m.Cost(tr.Stats(), 1, nil)
	if c.Levels[0].LabelBits != 16 {
		t.Errorf("label bits = %d, want floored at 16", c.Levels[0].LabelBits)
	}
}

func TestCostMonotoneInPopulation(t *testing.T) {
	small := buildTrie(t, []uint64{1, 2, 3})
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(i * 21)
	}
	large := buildTrie(t, vals)
	cs := DefaultTrieCostModel.Cost(small.Stats(), 3, nil)
	cl := DefaultTrieCostModel.Cost(large.Stats(), 3000, nil)
	if cl.Bits <= cs.Bits {
		t.Errorf("larger population should cost more: %d <= %d", cl.Bits, cs.Bits)
	}
	if cl.StoredNodes <= cs.StoredNodes {
		t.Error("larger population should store more nodes")
	}
}

func TestLUTCost(t *testing.T) {
	c := LUTCostOf(209, 13, 209, 64, 4)
	// 209 VLAN values: label 8 bits, entry = 1 + 13 + 8 = 22 bits; 256
	// provisioned slots.
	if c.BitsPerEntry != 22 {
		t.Errorf("bits/entry = %d, want 22", c.BitsPerEntry)
	}
	if c.Bits != 256*22 {
		t.Errorf("bits = %d, want %d", c.Bits, 256*22)
	}
	// Provisioning can never fall below the population.
	c2 := LUTCostOf(1000, 13, 1000, 4, 4)
	if c2.Bits < 1000*c2.BitsPerEntry {
		t.Error("under-provisioned LUT cost")
	}
}

func TestM20KBlocks(t *testing.T) {
	cases := []struct {
		depth, width, want int
	}{
		{0, 10, 0},
		{512, 40, 1},
		{513, 40, 2},
		{1024, 20, 1},
		{2048, 10, 1},
		{1024, 40, 2},
		{16384, 1, 1},
		{2048, 26, 3}, // 2048x10 shape: ceil(26/10)=3
	}
	for _, c := range cases {
		if got := M20KBlocks(c.depth, c.width); got != c.want {
			t.Errorf("M20KBlocks(%d, %d) = %d, want %d", c.depth, c.width, got, c.want)
		}
	}
}

func TestM20KBlocksLowerBound(t *testing.T) {
	// Block count can never beat the information-theoretic bound.
	for _, cfg := range [][2]int{{1000, 17}, {52928, 14}, {66592, 27}} {
		depth, width := cfg[0], cfg[1]
		blocks := M20KBlocks(depth, width)
		if blocks*M20KBits < depth*width {
			t.Errorf("M20KBlocks(%d, %d) = %d holds fewer bits than the memory needs", depth, width, blocks)
		}
	}
}

func TestSystemReport(t *testing.T) {
	var r SystemReport
	r.Add("vlan-lut", 256, 22)
	r.Add("eth-lower-trie-l3", 52928, 14)
	r.AddBits("index-calc", 10000)
	if len(r.Components) != 3 {
		t.Fatalf("components = %d", len(r.Components))
	}
	wantBits := 256*22 + 52928*14 + 10000
	if r.TotalBits != wantBits {
		t.Errorf("TotalBits = %d, want %d", r.TotalBits, wantBits)
	}
	if r.Blocks <= 0 {
		t.Error("block count should be positive")
	}
	if r.TotalMbits() <= 0 || r.TotalKbits() <= 0 {
		t.Error("unit conversions broken")
	}
	r.AddBits("empty", 0)
	if len(r.Components) != 3 {
		t.Error("zero-bit component should be ignored")
	}
}
