package crossprod

import (
	"maps"
	"slices"
	"testing"

	"ofmtl/internal/cow"
	"ofmtl/internal/label"
	"ofmtl/internal/xrand"
)

func TestInsertLookup(t *testing.T) {
	tbl := MustNew(2)
	key := []label.Label{1, 2}
	if err := tbl.Insert(key, Binding{Priority: 5, Payload: 100}, 0); err != nil {
		t.Fatal(err)
	}
	b, ok := tbl.Lookup(key)
	if !ok || b.Payload != 100 || b.Priority != 5 {
		t.Errorf("Lookup = %+v, %v", b, ok)
	}
	if _, ok := tbl.Lookup([]label.Label{1, 3}); ok {
		t.Error("absent key should miss")
	}
}

func TestLookupSeqOrdering(t *testing.T) {
	tbl := MustNew(2)
	if tbl.Dims() != 2 {
		t.Errorf("Dims = %d", tbl.Dims())
	}
	k1 := []label.Label{1, 2}
	k2 := []label.Label{3, 4}
	if err := tbl.Insert(k1, Binding{Priority: 5, Payload: 10}, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(k2, Binding{Priority: 5, Payload: 20}, 2); err != nil {
		t.Fatal(err)
	}
	_, seq1, ok1 := tbl.LookupSeq(k1)
	_, seq2, ok2 := tbl.LookupSeq(k2)
	if !ok1 || !ok2 {
		t.Fatal("both keys should resolve")
	}
	if seq1 != 1 || seq2 != 2 {
		t.Errorf("sequences not reflected: seq1=%d seq2=%d", seq1, seq2)
	}
	if _, _, ok := tbl.LookupSeq([]label.Label{9, 9}); ok {
		t.Error("absent key should miss")
	}
	if _, _, ok := tbl.LookupSeq([]label.Label{1}); ok {
		t.Error("wrong-dims key should miss")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) should panic")
		}
	}()
	MustNew(0)
}

func TestDimensionEnforced(t *testing.T) {
	tbl := MustNew(3)
	if err := tbl.Insert([]label.Label{1, 2}, Binding{}, 0); err == nil {
		t.Error("wrong-dims insert should error")
	}
	if _, err := New(0); err == nil {
		t.Error("zero dims should error")
	}
}

func TestPriorityOrdering(t *testing.T) {
	tbl := MustNew(1)
	key := []label.Label{7}
	if err := tbl.Insert(key, Binding{Priority: 1, Payload: 10}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(key, Binding{Priority: 9, Payload: 90}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(key, Binding{Priority: 5, Payload: 50}, 0); err != nil {
		t.Fatal(err)
	}
	if b, _ := tbl.Lookup(key); b.Payload != 90 {
		t.Errorf("head should be highest priority, got %+v", b)
	}
	// Removing the head exposes the next best.
	if err := tbl.Remove(key, Binding{Priority: 9, Payload: 90}); err != nil {
		t.Fatal(err)
	}
	if b, _ := tbl.Lookup(key); b.Payload != 50 {
		t.Errorf("after removal head = %+v, want payload 50", b)
	}
}

func TestPriorityTieBreaksBySeq(t *testing.T) {
	tbl := MustNew(1)
	key := []label.Label{1}
	if err := tbl.Insert(key, Binding{Priority: 5, Payload: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(key, Binding{Priority: 5, Payload: 2}, 0); err != nil {
		t.Fatal(err)
	}
	if b, _ := tbl.Lookup(key); b.Payload != 1 {
		t.Errorf("tie should keep first inserted at head, got %+v", b)
	}
}

func TestRefcounting(t *testing.T) {
	tbl := MustNew(2)
	key := []label.Label{1, Wildcard}
	b := Binding{Priority: 3, Payload: 33}
	if err := tbl.Insert(key, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(key, b, 0); err != nil {
		t.Fatal(err)
	}
	if tbl.Bindings() != 1 {
		t.Errorf("identical bindings should share storage: %d", tbl.Bindings())
	}
	if err := tbl.Remove(key, b); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(key); !ok {
		t.Error("binding freed too early")
	}
	if err := tbl.Remove(key, b); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(key); ok {
		t.Error("binding should be gone")
	}
	if err := tbl.Remove(key, b); err == nil {
		t.Error("remove of absent binding should error")
	}
	if tbl.Keys() != 0 {
		t.Errorf("keys = %d after full removal", tbl.Keys())
	}
}

func TestPeakKeys(t *testing.T) {
	tbl := MustNew(1)
	for i := 0; i < 10; i++ {
		if err := tbl.Insert([]label.Label{label.Label(i)}, Binding{Payload: uint32(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := tbl.Remove([]label.Label{label.Label(i)}, Binding{Payload: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Keys() != 5 || tbl.PeakKeys() != 10 {
		t.Errorf("Keys=%d PeakKeys=%d, want 5/10", tbl.Keys(), tbl.PeakKeys())
	}
}

// Property: a table over random workloads behaves as a multimap with
// priority-ordered values.
func TestTableInvariants(t *testing.T) {
	rng := xrand.New(77)
	tbl := MustNew(2)
	type entry struct {
		key [2]label.Label
		b   Binding
	}
	var live []entry
	for i := 0; i < 3000; i++ {
		if rng.Float64() < 0.6 || len(live) == 0 {
			e := entry{
				key: [2]label.Label{label.Label(rng.Intn(20)), label.Label(rng.Intn(20))},
				b:   Binding{Priority: rng.Intn(10), Payload: uint32(rng.Intn(5))},
			}
			if err := tbl.Insert(e.key[:], e.b, 0); err != nil {
				t.Fatal(err)
			}
			live = append(live, e)
		} else {
			k := rng.Intn(len(live))
			e := live[k]
			if err := tbl.Remove(e.key[:], e.b); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	// The head of every key must be its max-priority live binding.
	bestByKey := map[[2]label.Label]int{}
	liveKeys := map[[2]label.Label]bool{}
	for _, e := range live {
		liveKeys[e.key] = true
		if cur, ok := bestByKey[e.key]; !ok || e.b.Priority > cur {
			bestByKey[e.key] = e.b.Priority
		}
	}
	for key, want := range bestByKey {
		b, ok := tbl.Lookup(key[:])
		if !ok || b.Priority != want {
			t.Fatalf("key %v head priority = %d (%v), want %d", key, b.Priority, ok, want)
		}
	}
	if tbl.Keys() != len(liveKeys) {
		t.Errorf("Keys = %d, want %d", tbl.Keys(), len(liveKeys))
	}
}

// liveKey is one stored key with the sum of the reference counts of the
// bindings under it.
// Property: after every step of a random Insert/Remove stream — duplicate
// bindings, prefixes shared by many keys, wildcard labels, removes of
// absent keys and of absent bindings under present keys — each stage
// holds exactly the live prefixes with their reference sums, HasPrefix
// agrees with them, and a failed remove touches no stage.
func TestStagesTrackLivePrefixes(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 4, 6} {
		rng := xrand.New(uint64(100 + dims))
		tbl := MustNew(dims)
		type entry struct {
			key []label.Label
			b   Binding
		}
		var live []entry
		randKey := func() []label.Label {
			k := make([]label.Label, dims)
			for d := range k {
				if rng.Float64() < 0.2 {
					k[d] = Wildcard
				} else {
					k[d] = label.Label(rng.Intn(3 + d))
				}
			}
			return k
		}
		randBinding := func() Binding {
			return Binding{Priority: rng.Intn(4), Payload: uint32(rng.Intn(3))}
		}
		for step := 0; step < 1500; step++ {
			stepKey := randKey()
			switch r := rng.Float64(); {
			case r < 0.15 && len(live) > 0:
				// Another reference to a live binding.
				e := live[rng.Intn(len(live))]
				stepKey = e.key
				if err := tbl.Insert(e.key, e.b, 0); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
			case r < 0.25:
				// A remove that must fail: an absent key, or a binding the
				// key does not carry.
				e := entry{key: stepKey, b: randBinding()}
				if len(live) > 0 && rng.Float64() < 0.5 {
					e.key = live[rng.Intn(len(live))].key
				}
				if slices.ContainsFunc(live, func(l entry) bool { return slices.Equal(l.key, e.key) && l.b == e.b }) {
					continue
				}
				view := tbl.Publish()
				var refs []map[uint64]int32
				for _, s := range tbl.stages {
					refs = append(refs, stageRefs(s))
				}
				if err := tbl.Remove(e.key, e.b); err == nil {
					t.Fatalf("dims %d step %d: remove of absent %v %+v succeeded", dims, step, e.key, e.b)
				}
				if tbl.Publish() != view {
					t.Fatalf("dims %d step %d: failed remove changed the table", dims, step)
				}
				for i, s := range tbl.stages {
					if !maps.Equal(stageRefs(s), refs[i]) {
						t.Fatalf("dims %d step %d: failed remove touched stage %d", dims, step, i+2)
					}
				}
			case r < 0.65 || len(live) == 0:
				e := entry{key: stepKey, b: randBinding()}
				if err := tbl.Insert(e.key, e.b, 0); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
			default:
				k := rng.Intn(len(live))
				stepKey = live[k].key
				if err := tbl.Remove(live[k].key, live[k].b); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			}
			if err := tbl.CheckStages(); err != nil {
				t.Fatal(err)
			}
			// Probe the key this step touched and a random one, on the
			// table and on a view published now.
			view := tbl.Publish()
			for _, probe := range [][]label.Label{stepKey, randKey()} {
				for n := 2; n < dims; n++ {
					want := slices.ContainsFunc(live, func(l entry) bool { return slices.Equal(l.key[:n], probe[:n]) })
					for _, tb := range []*Table{tbl, view} {
						if got := tb.HasPrefix(probe[:n], HashKey(probe[:n])); got != want {
							t.Fatalf("dims %d step %d: HasPrefix(%v) = %v, want %v (view %v)", dims, step, probe[:n], got, want, tb == view)
						}
					}
				}
			}
		}
	}
}

// Property: a published view keeps answering for the bindings it was
// published with — heads, insertion sequences, the prefix stages — through
// any later inserts, removals and rehashes of the live table, on a packed
// table and on a wide one whose keys live in the arena; and no published
// page is written (the seals).
func TestPublishedViewsAreUnaffectedByLaterWrites(t *testing.T) {
	cow.SealForTest(t)
	for _, dims := range []int{2, 5} {
		rng := xrand.New(uint64(dims))
		tbl := MustNew(dims)
		type answer struct {
			b   Binding
			seq uint64
			ok  bool
		}
		type published struct {
			view *Table
			keys [][]label.Label
			want []answer
			keyN int
		}
		type entry struct {
			key []label.Label
			b   Binding
		}
		var live []entry
		var views []published
		randKey := func() []label.Label {
			k := make([]label.Label, dims)
			for d := range k {
				k[d] = label.Label(rng.Intn(12))
			}
			return k
		}
		for step := 0; step < 6000; step++ {
			if rng.Float64() < 0.6 || len(live) == 0 {
				e := entry{key: randKey(), b: Binding{Priority: rng.Intn(6), Payload: uint32(rng.Intn(4))}}
				if err := tbl.Insert(e.key, e.b, 0); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
			} else {
				k := rng.Intn(len(live))
				if err := tbl.Remove(live[k].key, live[k].b); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			}
			if step%500 == 499 {
				p := published{view: tbl.Publish(), keyN: tbl.Keys()}
				if tbl.Publish() != p.view {
					t.Fatal("an unchanged table published a second view")
				}
				for i := 0; i < 200; i++ {
					key := randKey()
					b, seq, ok := tbl.LookupSeq(key)
					p.keys = append(p.keys, key)
					p.want = append(p.want, answer{b, seq, ok})
				}
				views = append(views, p)
			}
		}
		for vi, p := range views {
			if p.view.Keys() != p.keyN {
				t.Fatalf("dims %d, view %d: Keys = %d, want %d", dims, vi, p.view.Keys(), p.keyN)
			}
			for i, key := range p.keys {
				b, seq, ok := p.view.LookupSeq(key)
				if (answer{b, seq, ok}) != p.want[i] {
					t.Fatalf("dims %d, view %d, key %v: %+v/%d/%v, want %+v", dims, vi, key, b, seq, ok, p.want[i])
				}
				for n := 2; ok && n < dims; n++ {
					if !p.view.HasPrefix(key[:n], HashKey(key[:n])) {
						t.Fatalf("dims %d, view %d: stage %d lost %v", dims, vi, n, key[:n])
					}
				}
			}
		}
	}
}
