package update

import (
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/filterset"
	"ofmtl/internal/label"
	"ofmtl/internal/mbt"
	"ofmtl/internal/xrand"
)

func TestTrieInsertRecords(t *testing.T) {
	strides := mbt.DefaultStrides16 // {5, 5, 6}
	cases := []struct {
		plen, want int
	}{
		{16, 3},      // exact value: 2 descents + 1 slot
		{11, 2 + 32}, // level 3, 2^(16-11) = 32 expanded slots
		{10, 1 + 1},  // level 2 boundary: 1 descent + 1 slot
		{8, 1 + 4},   // level 2, 4 expanded slots
		{5, 0 + 1},   // level 1 boundary
		{3, 0 + 4},   // level 1, 4 slots
		{0, 32},      // default route: full level-1 expansion
	}
	for _, c := range cases {
		if got := trieInsertRecords(c.plen, strides); got != c.want {
			t.Errorf("trieInsertRecords(%d) = %d, want %d", c.plen, got, c.want)
		}
	}
}

// TestPathRecordsMatchTrie ties the record count to the real structure:
// one prefix's trieInsertRecords equals the slots a fresh mbt.Trie
// occupies after inserting it, over every level.
func TestPathRecordsMatchTrie(t *testing.T) {
	rng := xrand.New(15)
	strides := mbt.DefaultStrides16
	for trial := 0; trial < 200; trial++ {
		plen := rng.Intn(17)
		value := rng.Uint64() & bitops.Mask64(plen, 16)
		tr := mbt.MustNew(mbt.Config16())
		if err := tr.Insert(value, plen, label.Label(1)); err != nil {
			t.Fatal(err)
		}
		occupied := 0
		for _, ls := range tr.Stats() {
			occupied += ls.OccupiedSlots
		}
		if got := trieInsertRecords(plen, strides); got != occupied {
			t.Fatalf("plen %d value %#x: %d records, trie has %d occupied slots", plen, value, got, occupied)
		}
	}
}

func TestEngineCycles(t *testing.T) {
	p := Plan{AlgorithmRecords: 10, TableRecords: 5}
	if got := Cycles(p); got != 30 {
		t.Errorf("cycles = %d, want 30 (2 per record)", got)
	}
}

func TestLabelMethodAlwaysWins(t *testing.T) {
	// For every filter of both applications, the optimized file must be
	// strictly cheaper — the paper's headline claim.
	for _, f := range filterset.GenerateAllMAC(filterset.DefaultSeed) {
		c := CompareMAC(f)
		if c.Optimized >= c.Original {
			t.Errorf("MAC %s: optimized %d >= original %d", f.Name, c.Optimized, c.Original)
		}
	}
	for _, f := range filterset.GenerateAllRoute(filterset.DefaultSeed) {
		c := CompareRoute(f)
		if c.Optimized >= c.Original {
			t.Errorf("route %s: optimized %d >= original %d", f.Name, c.Optimized, c.Original)
		}
	}
}

func TestAverageReductionInPaperBand(t *testing.T) {
	// The paper reports 56.92 % average savings across its filters. Our
	// synthetic filters reproduce the unique-value distributions, so the
	// measured average must land in the same band (the exact figure
	// depends on the record accounting the paper does not fully specify).
	var cs []FilterComparison
	for _, f := range filterset.GenerateAllMAC(filterset.DefaultSeed) {
		cs = append(cs, CompareMAC(f))
	}
	for _, f := range filterset.GenerateAllRoute(filterset.DefaultSeed) {
		cs = append(cs, CompareRoute(f))
	}
	avg := AverageReductionPct(cs)
	if avg < 40 || avg > 80 {
		t.Errorf("average reduction = %.2f%%, want within [40, 80] (paper: 56.92%%)", avg)
	}
	t.Logf("average update-cycle reduction: %.2f%% (paper: 56.92%%)", avg)
}

func TestTableRecordsEqualAcrossPlans(t *testing.T) {
	// Only the algorithm files differ between the plans; the table files
	// are identical (Section V.B compares algorithm updates).
	f, err := filterset.GenerateMAC("goza", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if PlanMACOptimized(f).TableRecords != PlanMACOriginal(f).TableRecords {
		t.Error("MAC table records must match across plans")
	}
	r, err := filterset.GenerateRoute("goza", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if PlanRouteOptimized(r).TableRecords != PlanRouteOriginal(r).TableRecords {
		t.Error("route table records must match across plans")
	}
}

func TestBigFiltersSaveMore(t *testing.T) {
	// coza (185k rules, 11% unique) must save far more than bbra (1.8k
	// rules, mostly unique) — repetition is what the label method exploits.
	coza, err := filterset.GenerateRoute("coza", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	bbra, err := filterset.GenerateRoute("bbra", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	rc, rb := CompareRoute(coza), CompareRoute(bbra)
	if rc.ReductionPct() <= rb.ReductionPct() {
		t.Errorf("coza reduction %.1f%% should exceed bbra %.1f%%", rc.ReductionPct(), rb.ReductionPct())
	}
}

func TestComparisonString(t *testing.T) {
	c := FilterComparison{Filter: "bbra", App: filterset.MACLearning, Original: 200, Optimized: 100}
	if c.ReductionPct() != 50 {
		t.Errorf("ReductionPct = %v", c.ReductionPct())
	}
	if s := c.String(); s == "" {
		t.Error("empty String")
	}
}
