package mbt

import (
	"runtime"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/cow"
	"ofmtl/internal/label"
	"ofmtl/internal/xrand"
)

// Tests for the edge paths of the dense (index-addressed) trie layout:
// node recycling through the freelists, overflow-chain maintenance for
// multi-entry slots, and the independence of published views from the
// live trie's paged arenas.

// insEntry is one scripted insertion of TestSpilledSlotOrdering.
type insEntry struct {
	plen int
	lab  label.Label
}

// TestSpilledSlotOrdering drives one slot through head/overflow-chain
// transitions in every direction: entries arriving in ascending,
// descending and interleaved prefix-length order must always read back
// longest-first, with equal lengths in insertion order.
func TestSpilledSlotOrdering(t *testing.T) {
	// All these prefixes expand into slot 0 of the level-3 node under key
	// 0x0000 (plens 11..16 land at level 3 with strides {5,5,6}).
	cases := [][]insEntry{
		{{11, 1}, {12, 2}, {13, 3}, {16, 4}},          // ascending: head replaced each time
		{{16, 4}, {13, 3}, {12, 2}, {11, 1}},          // descending: chain appends
		{{13, 3}, {16, 4}, {11, 1}, {12, 2}},          // interleaved: chain splices
		{{12, 1}, {12, 2}, {12, 3}, {16, 9}},          // duplicates of one length keep order
		{{16, 7}, {12, 1}, {12, 2}, {12, 3}, {11, 5}}, // mixed
	}
	for ci, seq := range cases {
		tr := MustNew(Config16())
		for _, e := range seq {
			if err := tr.Insert(0, e.plen, e.lab); err != nil {
				t.Fatalf("case %d: insert /%d: %v", ci, e.plen, err)
			}
		}
		got := tr.LookupAll(0, nil)
		if len(got) != len(seq) {
			t.Fatalf("case %d: %d matches, want %d: %+v", ci, len(got), len(seq), got)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Plen < got[i].Plen {
				t.Fatalf("case %d: not sorted longest-first: %+v", ci, got)
			}
		}
		// Equal plens must preserve insertion order (stability).
		for i := 1; i < len(got); i++ {
			if got[i-1].Plen == got[i].Plen {
				before := indexOf(seq, got[i-1].Label)
				after := indexOf(seq, got[i].Label)
				if before > after {
					t.Fatalf("case %d: equal-plen entries reordered: %+v", ci, got)
				}
			}
		}
		// Remove in a scrambled order and verify the chain stays coherent.
		rng := xrand.New(uint64(ci) + 1)
		for _, k := range rng.Perm(len(seq)) {
			e := seq[k]
			if err := tr.Delete(0, e.plen, e.lab); err != nil {
				t.Fatalf("case %d: delete /%d lab %d: %v", ci, e.plen, e.lab, err)
			}
		}
		if got := tr.LookupAll(0, nil); len(got) != 0 {
			t.Fatalf("case %d: residual entries after drain: %+v", ci, got)
		}
	}
}

func indexOf(seq []insEntry, lab label.Label) int {
	for i, e := range seq {
		if e.lab == lab {
			return i
		}
	}
	return -1
}

// TestDeletePrunesNodesAndRecycles checks that deleting the last entry of
// a deep branch frees its node blocks, that the paper's stored-nodes
// accounting shrinks accordingly, and that freed blocks are recycled (the
// arena does not grow when an equivalent branch is re-inserted).
func TestDeletePrunesNodesAndRecycles(t *testing.T) {
	tr := MustNew(Config16())
	// Two full-width values in disjoint level-1 subtrees: two L2 and two
	// L3 nodes.
	if err := tr.Insert(0x0000, 16, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(0xFFFF, 16, 2); err != nil {
		t.Fatal(err)
	}
	if tr.StoredNodes() != 32+2*32+2*64 {
		t.Fatalf("StoredNodes = %d, want %d", tr.StoredNodes(), 32+2*32+2*64)
	}
	arenaLen := tr.levels[2].nslots

	if err := tr.Delete(0xFFFF, 16, 2); err != nil {
		t.Fatal(err)
	}
	if tr.StoredNodes() != 32+32+64 {
		t.Fatalf("after delete StoredNodes = %d, want %d", tr.StoredNodes(), 32+32+64)
	}
	if len(tr.ctl.levels[1].freeNodes) != 1 || len(tr.ctl.levels[2].freeNodes) != 1 {
		t.Fatalf("freed nodes not on freelists: L2 %v L3 %v",
			tr.ctl.levels[1].freeNodes, tr.ctl.levels[2].freeNodes)
	}

	// Re-inserting a different branch must recycle the freed blocks, not
	// extend the arena.
	if err := tr.Insert(0x8000, 16, 3); err != nil {
		t.Fatal(err)
	}
	if tr.levels[2].nslots != arenaLen {
		t.Fatalf("arena grew on recycle: %d slots, want %d", tr.levels[2].nslots, arenaLen)
	}
	if lab, plen, ok := tr.Lookup(0x8000); !ok || lab != 3 || plen != 16 {
		t.Fatalf("recycled-node lookup = %d/%d/%v", lab, plen, ok)
	}
	// The recycled block must have been wiped: keys routing into it but
	// not matching must miss.
	if _, _, ok := tr.Lookup(0x8001); ok {
		t.Fatal("stale entry visible in recycled node block")
	}
}

// TestCloneIndependence (the name predates views) pins what the
// pipeline's published snapshots rely on: a view is unaffected by later
// writes to the live trie — contents, statistics and overflow chains —
// and the live trie is unaffected by dropping the view. The page seals
// check the stronger invariant underneath: no published page is written.
func TestCloneIndependence(t *testing.T) {
	cow.SealForTest(t)
	rng := xrand.New(99)
	tr := MustNew(Config16())
	type pfx struct {
		v    uint64
		plen int
		lab  label.Label
	}
	var live []pfx
	seen := map[[2]uint64]bool{}
	for i := 0; i < 300; i++ {
		plen := rng.Intn(17)
		v := rng.Uint64() & bitops.Mask64(plen, 16)
		if seen[[2]uint64{v, uint64(plen)}] {
			continue
		}
		seen[[2]uint64{v, uint64(plen)}] = true
		if err := tr.Insert(v, plen, label.Label(i)); err != nil {
			t.Fatal(err)
		}
		live = append(live, pfx{v, plen, label.Label(i)})
	}
	view := tr.Publish()
	if tr.Publish() != view {
		t.Fatal("an unchanged trie published a second view")
	}
	wantStats := view.Stats()

	// Record the view's answers before mutating the live trie.
	keys := make([]uint64, 500)
	type ans struct {
		lab  label.Label
		plen int
		ok   bool
	}
	want := make([]ans, len(keys))
	for i := range keys {
		keys[i] = rng.Uint64() & 0xFFFF
		lab, plen, ok := view.Lookup(keys[i])
		want[i] = ans{lab, plen, ok}
	}

	// Mutate the live trie heavily: delete half, insert replacements,
	// publishing further views along the way.
	for i, p := range live {
		if i%2 == 0 {
			if err := tr.Delete(p.v, p.plen, p.lab); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 0 {
			tr.Publish()
		}
	}
	for i := 0; i < 200; i++ {
		plen := rng.Intn(17)
		v := rng.Uint64() & bitops.Mask64(plen, 16)
		_ = tr.Insert(v, plen, label.Label(10000+i))
	}
	if tr.Publish() == view {
		t.Fatal("a changed trie republished its old view")
	}

	for i, k := range keys {
		lab, plen, ok := view.Lookup(k)
		if ok != want[i].ok || lab != want[i].lab || plen != want[i].plen {
			t.Fatalf("view answer changed for key %#x: got %d/%d/%v want %d/%d/%v",
				k, lab, plen, ok, want[i].lab, want[i].plen, want[i].ok)
		}
	}
	got := view.Stats()
	for i := range wantStats {
		if got[i] != wantStats[i] {
			t.Fatalf("view stats changed: level %d got %+v want %+v", i+1, got[i], wantStats[i])
		}
	}
	if err := cow.VerifySeals(); err != nil {
		t.Fatal(err)
	}

	// Drop every view and keep writing: the live trie must still satisfy
	// its own invariants and answer for what it holds.
	view = nil
	runtime.GC()
	for i := 0; i < 100; i++ {
		plen := rng.Intn(17)
		v := rng.Uint64() & bitops.Mask64(plen, 16)
		_ = tr.Insert(v, plen, label.Label(20000+i))
	}
	gotO := tr.Stats()
	wantO := recount(tr)
	for i := range wantO {
		if gotO[i] != wantO[i] {
			t.Fatalf("live stats diverged from recount at level %d: %+v vs %+v",
				i+1, gotO[i], wantO[i])
		}
	}
	for i, p := range live {
		if i%2 == 0 {
			continue
		}
		found := false
		for _, m := range tr.LookupAll(p.v, nil) {
			found = found || (m.Label == p.lab && m.Plen == p.plen)
		}
		if !found {
			t.Fatalf("live trie lost %#x/%d after its views were dropped", p.v, p.plen)
		}
	}
	if err := cow.VerifySeals(); err != nil {
		t.Fatal(err)
	}
}
