package rangelookup

import (
	"testing"
	"testing/quick"

	"ofmtl/internal/label"
	"ofmtl/internal/xrand"
)

func TestEmptyTable(t *testing.T) {
	var tbl Table
	if _, ok := tbl.Lookup(5); ok {
		t.Error("empty table should miss")
	}
	if tbl.Segments() != 0 || tbl.Len() != 0 {
		t.Error("empty table should have no segments")
	}
}

func TestBasicContainment(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(100, 200, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{100, 150, 200} {
		if lab, ok := tbl.Lookup(k); !ok || lab != 1 {
			t.Errorf("Lookup(%d) = %v/%v, want 1/true", k, lab, ok)
		}
	}
	for _, k := range []uint64{99, 201, 0} {
		if _, ok := tbl.Lookup(k); ok {
			t.Errorf("Lookup(%d) should miss", k)
		}
	}
}

func TestNarrowestWins(t *testing.T) {
	var tbl Table
	// Wide range, then a narrower one nested inside (paper: "the narrowest
	// range is selected from all the ranges of the filter that match").
	if err := tbl.Insert(0, 65535, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(1024, 2047, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(1500, 1500, 3); err != nil {
		t.Fatal(err)
	}
	cases := map[uint64]label.Label{
		0: 1, 1023: 1, 1024: 2, 1499: 2, 1500: 3, 1501: 2, 2047: 2, 2048: 1, 65535: 1,
	}
	for k, want := range cases {
		if lab, ok := tbl.Lookup(k); !ok || lab != want {
			t.Errorf("Lookup(%d) = %v/%v, want %v", k, lab, ok, want)
		}
	}
}

func TestTieBreaksByInsertionOrder(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(10, 20, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(10, 20, 2); err != nil {
		t.Fatal(err)
	}
	if lab, ok := tbl.Lookup(15); !ok || lab != 1 {
		t.Errorf("tie should go to first inserted, got %v/%v", lab, ok)
	}
}

func TestInvertedRangeRejected(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(10, 5, 1); err == nil {
		t.Error("inverted range should error")
	}
}

func TestRemove(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(0, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(40, 60, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove(40, 60, 2); err != nil {
		t.Fatal(err)
	}
	if lab, ok := tbl.Lookup(50); !ok || lab != 1 {
		t.Errorf("after removal Lookup(50) = %v/%v, want 1", lab, ok)
	}
	if err := tbl.Remove(40, 60, 2); err == nil {
		t.Error("double remove should error")
	}
}

func TestFullWidthRange(t *testing.T) {
	var tbl Table
	if err := tbl.Insert(0, ^uint64(0), 9); err != nil {
		t.Fatal(err)
	}
	if lab, ok := tbl.Lookup(^uint64(0)); !ok || lab != 9 {
		t.Errorf("full-width range miss at max key: %v/%v", lab, ok)
	}
}

func TestSegmentsCoalesce(t *testing.T) {
	var tbl Table
	// Two adjacent ranges with the same label should not multiply segments
	// unnecessarily; exact count depends on boundaries, but must be small.
	if err := tbl.Insert(0, 9, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(10, 19, 1); err != nil {
		t.Fatal(err)
	}
	if s := tbl.Segments(); s > 2 {
		t.Errorf("adjacent same-label ranges produced %d segments", s)
	}
}

// referenceLookup is the brute-force narrowest-range matcher.
func referenceLookup(entries [][3]uint64, key uint64) (label.Label, bool) {
	bestWidth := ^uint64(0)
	bestIdx := -1
	for i, e := range entries {
		if key < e[0] || key > e[1] {
			continue
		}
		w := e[1] - e[0]
		if bestIdx < 0 || w < bestWidth {
			bestIdx, bestWidth = i, w
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return label.Label(entries[bestIdx][2]), true
}

// Property: table lookups agree with the brute-force reference on random
// port-range workloads.
func TestMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		var tbl Table
		var entries [][3]uint64
		for i := 0; i < 40; i++ {
			lo := uint64(rng.Intn(1000))
			hi := lo + uint64(rng.Intn(200))
			lab := uint64(i)
			if err := tbl.Insert(lo, hi, label.Label(lab)); err != nil {
				return false
			}
			entries = append(entries, [3]uint64{lo, hi, lab})
		}
		for k := uint64(0); k < 1300; k++ {
			gotLab, gotOK := tbl.Lookup(k)
			wantLab, wantOK := referenceLookup(entries, k)
			if gotOK != wantOK {
				return false
			}
			if gotOK {
				// Widths must agree even if a tie picked a different label.
				gw := width(entries, gotLab)
				ww := width(entries, wantLab)
				if gw != ww {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func width(entries [][3]uint64, lab label.Label) uint64 {
	for _, e := range entries {
		if label.Label(e[2]) == lab {
			return e[1] - e[0]
		}
	}
	return ^uint64(0)
}

// A published view shares the elementary intervals it was published with:
// later inserts and removals rebuild into a fresh slice and never show.
func TestPublishedViewIsUnaffectedByLaterWrites(t *testing.T) {
	var tbl Table
	for i := uint64(0); i < 50; i++ {
		if err := tbl.Insert(i*100, i*100+150, label.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	view := tbl.Publish()
	segs := view.Segments()
	var want [][]label.Label
	for key := uint64(0); key < 5200; key += 13 {
		want = append(want, append([]label.Label(nil), view.LookupAll(key)...))
	}
	for i := uint64(0); i < 50; i += 2 {
		if err := tbl.Remove(i*100, i*100+150, label.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(0, 6000, 99); err != nil {
		t.Fatal(err)
	}
	tbl.Segments() // rebuilds the live table
	if view.Segments() != segs {
		t.Fatalf("view has %d segments, was published with %d", view.Segments(), segs)
	}
	for i, key := 0, uint64(0); key < 5200; i, key = i+1, key+13 {
		got := view.LookupAll(key)
		if len(got) != len(want[i]) {
			t.Fatalf("view, key %d: %v, want %v", key, got, want[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("view, key %d: %v, want %v", key, got, want[i])
			}
		}
	}
	if labs := tbl.LookupAll(10); len(labs) != 1 || labs[0] != 99 {
		t.Fatalf("live table after the writes: %v, want [99]", labs)
	}
}
