package rangelookup

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

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

// refEntry is a range of the reference model, in insertion order.
type refEntry struct {
	lo, hi uint64
	lab    label.Label
}

// referenceAll is the brute-force matcher: the labels of every range
// containing key, narrowest first, the earlier inserted on equal widths.
func referenceAll(entries []refEntry, key uint64) []label.Label {
	var cover []refEntry
	for _, e := range entries {
		if e.lo <= key && key <= e.hi {
			cover = append(cover, e)
		}
	}
	slices.SortStableFunc(cover, func(a, b refEntry) int { return cmp.Compare(a.hi-a.lo, b.hi-b.lo) })
	var labs []label.Label
	for _, e := range cover {
		labs = append(labs, e.lab)
	}
	return labs
}

// referenceSegments counts elementary intervals the way a sweep over the
// range boundaries does: from the lowest boundary up, a new interval
// wherever the containing list changes.
func referenceSegments(entries []refEntry) int {
	var points []uint64
	for _, e := range entries {
		points = append(points, e.lo)
		if e.hi != math.MaxUint64 {
			points = append(points, e.hi+1)
		}
	}
	slices.Sort(points)
	n := 0
	var prev []label.Label
	for _, p := range slices.Compact(points) {
		labs := referenceAll(entries, p)
		if n == 0 || !slices.Equal(labs, prev) {
			n++
		}
		prev = labs
	}
	return n
}

// probes returns every range boundary of entries, one below and one
// above, plus both ends of the key space.
func probes(entries []refEntry) []uint64 {
	keys := []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}
	for _, e := range entries {
		for _, p := range []uint64{e.lo, e.hi, e.hi + 1} {
			keys = append(keys, p-1, p, p+1)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// Property: under a seeded sequence of inserts, removes and publishes —
// duplicate ranges, point ranges, the full-width range, and on odd seeds
// some labels shared between ranges — the table agrees with the brute-force
// reference on the full containing list at every boundary and one either
// side, its interval count equals a from-scratch sweep's, and it passes
// its own structural check. Every view keeps answering as it did when it
// was published, also read concurrently with the updates that follow.
func TestMatchesReferenceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := xrand.New(seed)
		var tbl Table
		var live []refEntry
		next := label.Label(0)
		var wg sync.WaitGroup
		for op := 0; op < 300; op++ {
			fail := func(format string, args ...any) {
				t.Helper()
				wg.Wait()
				t.Fatalf("seed %d op %d: %s", seed, op, fmt.Sprintf(format, args...))
			}
			switch c := rng.Intn(10); {
			case c < 4 || len(live) < 3:
				var e refEntry
				switch rng.Intn(6) {
				case 0:
					e.lo = uint64(rng.Intn(400))
					e.hi = e.lo
				case 1:
					e.hi = math.MaxUint64
					if rng.Intn(2) == 0 {
						e.lo = math.MaxUint64 - uint64(rng.Intn(8))
					}
				case 2:
					if len(live) > 0 {
						d := live[rng.Intn(len(live))]
						e.lo, e.hi = d.lo, d.hi
						break
					}
					fallthrough
				default:
					e.lo = uint64(rng.Intn(400))
					e.hi = e.lo + uint64(rng.Intn(80))
				}
				e.lab = next
				next++
				if seed%2 == 1 && len(live) > 0 && rng.Intn(6) == 0 {
					e.lab = live[rng.Intn(len(live))].lab
				}
				if err := tbl.Insert(e.lo, e.hi, e.lab); err != nil {
					fail("insert [%d, %d]: %v", e.lo, e.hi, err)
				}
				live = append(live, e)
			case c < 8:
				d := live[rng.Intn(len(live))]
				if err := tbl.Remove(d.lo, d.hi, d.lab); err != nil {
					fail("remove [%d, %d] %d: %v", d.lo, d.hi, d.lab, err)
				}
				i := slices.Index(live, d) // the earliest inserted of equal ranges
				live = slices.Delete(live, i, i+1)
			default:
				view := tbl.Publish()
				keys := probes(live)
				want := make([][]label.Label, len(keys))
				for i, k := range keys {
					want[i] = referenceAll(live, k)
				}
				segs := referenceSegments(live)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for pass := 0; pass < 8; pass++ {
						if got := view.Segments(); got != segs {
							t.Errorf("seed %d: a view published at op %d has %d intervals, had %d", seed, op, got, segs)
							return
						}
						for i, k := range keys {
							if got := view.LookupAll(k); !slices.Equal(got, want[i]) {
								t.Errorf("seed %d: a view published at op %d answers key %d with %v, had %v", seed, op, k, got, want[i])
								return
							}
						}
					}
				}()
			}
			if err := tbl.Check(); err != nil {
				fail("%v", err)
			}
			if got, want := tbl.Segments(), referenceSegments(live); got != want {
				fail("%d intervals, a sweep gives %d", got, want)
			}
			if tbl.Len() != len(live) {
				fail("Len %d, want %d", tbl.Len(), len(live))
			}
			for _, k := range probes(live) {
				if got, want := tbl.LookupAll(k), referenceAll(live, k); !slices.Equal(got, want) {
					fail("key %d: %v, want %v", k, got, want)
				}
			}
		}
		wg.Wait()
	}
}

// A published view shares the elementary intervals it was published with:
// later inserts and removals write to the live table's own copy and never
// show.
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
