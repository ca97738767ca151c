package lut

import (
	"testing"
	"testing/quick"

	"ofmtl/internal/cow"
	"ofmtl/internal/label"
	"ofmtl/internal/xrand"
)

func TestInsertLookup(t *testing.T) {
	l, err := New(13, 0) // VLAN ID width
	if err != nil {
		t.Fatal(err)
	}
	lab, isNew, err := l.Insert(100)
	if err != nil || !isNew {
		t.Fatalf("first insert: %v %v", isNew, err)
	}
	lab2, isNew2, err := l.Insert(100)
	if err != nil || isNew2 || lab2 != lab {
		t.Error("second insert must share the label")
	}
	if l.Lookup(100) != lab {
		t.Error("lookup mismatch")
	}
	if l.Lookup(101) != label.NoLabel {
		t.Error("absent key should return NoLabel")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
}

func TestKeyWidthEnforced(t *testing.T) {
	l, err := New(13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Insert(0x2000); err == nil {
		t.Error("14-bit key in 13-bit LUT should error")
	}
	if _, err := New(0, 0); err == nil {
		t.Error("zero key width should error")
	}
	if _, err := New(65, 0); err == nil {
		t.Error("65-bit key width should error")
	}
	if _, err := New(16, -1); err == nil {
		t.Error("negative ways should error")
	}
}

func TestRemoveRefcounts(t *testing.T) {
	l, err := New(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Insert(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Insert(7); err != nil {
		t.Fatal(err)
	}
	removed, err := l.Remove(7)
	if err != nil || removed {
		t.Error("first remove should not free")
	}
	removed, err = l.Remove(7)
	if err != nil || !removed {
		t.Error("second remove should free")
	}
	if l.Lookup(7) != label.NoLabel {
		t.Error("freed key should be absent")
	}
	if _, err := l.Remove(7); err == nil {
		t.Error("remove of absent key should error")
	}
}

func TestGrowthKeepsLabels(t *testing.T) {
	l, err := New(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	labels := make(map[uint64]label.Label, 1000)
	for i := uint64(0); i < 1000; i++ {
		lab, _, err := l.Insert(i * 977)
		if err != nil {
			t.Fatal(err)
		}
		labels[i*977] = lab
	}
	if l.Buckets() < 1000/2 {
		t.Errorf("buckets = %d after 1000 inserts with 2-way buckets", l.Buckets())
	}
	for k, want := range labels {
		if got := l.Lookup(k); got != want {
			t.Fatalf("label for %d changed after growth: %d != %d", k, got, want)
		}
	}
}

func TestOverflowAccounting(t *testing.T) {
	l, err := New(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		if _, _, err := l.Insert(rng.Uint64() & 0xFFFFFFFF); err != nil {
			t.Fatal(err)
		}
	}
	// With 1-way buckets at load factor <= 0.75 some collisions are
	// expected but overflow must stay well below the population.
	if over := l.Overflow(); over < 0 || over > l.Len()/2 {
		t.Errorf("overflow = %d of %d entries", over, l.Len())
	}
}

// Property: the LUT behaves as a refcounted map from values to stable
// labels under random workloads.
func TestLUTMatchesMapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		l, err := New(16, 0)
		if err != nil {
			return false
		}
		refs := map[uint64]int{}
		lbls := map[uint64]label.Label{}
		for i := 0; i < 500; i++ {
			k := uint64(rng.Intn(64))
			if rng.Float64() < 0.6 || refs[k] == 0 {
				lab, isNew, err := l.Insert(k)
				if err != nil {
					return false
				}
				if isNew != (refs[k] == 0) {
					return false
				}
				if !isNew && lbls[k] != lab {
					return false
				}
				lbls[k] = lab
				refs[k]++
			} else {
				removed, err := l.Remove(k)
				if err != nil {
					return false
				}
				refs[k]--
				if removed != (refs[k] == 0) {
					return false
				}
			}
		}
		live := 0
		for k, n := range refs {
			if n > 0 {
				live++
				if l.Lookup(k) != lbls[k] {
					return false
				}
			} else if l.Lookup(k) != label.NoLabel {
				return false
			}
		}
		return l.Len() == live
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	l, err := New(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 209; i++ { // the paper's worst-case VLAN count
		if _, _, err := l.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if _, err := l.Remove(i); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 109 || l.Peak() != 209 {
		t.Errorf("Len=%d Peak=%d, want 109/209", l.Len(), l.Peak())
	}
}

// A published view keeps its labels and counters through later inserts,
// removals and growth of the live LUT.
func TestPublishedViewIsUnaffectedByLaterWrites(t *testing.T) {
	cow.SealForTest(t)
	l, err := New(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]label.Label{}
	for k := uint64(0); k < 300; k++ {
		lab, _, err := l.Insert(k * 7919)
		if err != nil {
			t.Fatal(err)
		}
		want[k*7919] = lab
	}
	view := l.Publish()
	n, peak, buckets := view.Len(), view.Peak(), view.Buckets()
	for k := uint64(0); k < 300; k += 2 {
		if _, err := l.Remove(k * 7919); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1000); k < 3000; k++ { // recycles the freed labels, grows the index
		if _, _, err := l.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	l.Publish()
	for k, lab := range want {
		if got := view.Lookup(k); got != lab {
			t.Fatalf("view: key %d → label %d, want %d", k, got, lab)
		}
	}
	if got := view.Lookup(1000); got != label.NoLabel {
		t.Fatalf("view sees a key inserted after it was published (label %d)", got)
	}
	if view.Len() != n || view.Peak() != peak || view.Buckets() != buckets {
		t.Fatalf("view counters moved: %d/%d/%d, want %d/%d/%d", view.Len(), view.Peak(), view.Buckets(), n, peak, buckets)
	}
}
