package mbt

import (
	"testing"
	"testing/quick"

	"ofmtl/internal/bitops"
	"ofmtl/internal/label"
	"ofmtl/internal/xrand"
)

// recount walks the trie structure and recomputes the level statistics
// from scratch, independently of the incremental accounting. It walks only
// the reachable node blocks (freed blocks stay in the arenas until
// recycled), mirroring what the old pointer-linked walk counted.
func recount(t *Trie) []LevelStats {
	out := make([]LevelStats, len(t.cfg.Strides))
	for i, s := range t.cfg.Strides {
		out[i].Level = i + 1
		out[i].Stride = s
	}
	var walk func(id int32, lvl int)
	walk = func(id int32, lvl int) {
		out[lvl].Nodes++
		lv := &t.levels[lvl]
		base := int(id) << uint(lv.stride)
		for i := 0; i < 1<<uint(lv.stride); i++ {
			sl := lv.slots.Get(base + i)
			if !sl.empty() {
				out[lvl].OccupiedSlots++
			}
			out[lvl].Entries += int(sl.cnt)
			// Cross-check cnt against the actual chain length.
			chain := 0
			for cur := sl.over; cur != noIndex; cur = t.over.Get(int(cur)).next {
				chain++
			}
			if want := int(sl.cnt) - 1; sl.cnt > 0 && chain != want {
				panic("mbt: slot cnt disagrees with overflow chain length")
			}
			if sl.cnt == 0 && chain != 0 {
				panic("mbt: empty slot with overflow chain")
			}
			if sl.child != noIndex {
				walk(sl.child, lvl+1)
			}
		}
	}
	walk(0, 0)
	for i := range out {
		out[i].CapacitySlots = out[i].Nodes << uint(out[i].Stride)
	}
	return out
}

// Property: after any interleaving of inserts and deletes, the trie's
// incrementally maintained statistics equal a from-scratch recount.
func TestStatsMatchRecount(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		tr := MustNew(Config16())
		type pfx struct {
			v    uint64
			plen int
			lab  label.Label
		}
		var live []pfx
		seen := map[[2]uint64]bool{}
		for i := 0; i < 300; i++ {
			if rng.Float64() < 0.7 || len(live) == 0 {
				plen := rng.Intn(17)
				v := rng.Uint64() & bitops.Mask64(plen, 16)
				if seen[[2]uint64{v, uint64(plen)}] {
					continue
				}
				seen[[2]uint64{v, uint64(plen)}] = true
				p := pfx{v, plen, label.Label(i)}
				if err := tr.Insert(p.v, p.plen, p.lab); err != nil {
					return false
				}
				live = append(live, p)
			} else {
				k := rng.Intn(len(live))
				p := live[k]
				if err := tr.Delete(p.v, p.plen, p.lab); err != nil {
					return false
				}
				delete(seen, [2]uint64{p.v, uint64(p.plen)})
				live = append(live[:k], live[k+1:]...)
			}
		}
		got := tr.Stats()
		want := recount(tr)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("level %d: incremental %+v, recount %+v", i+1, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: LookupAll returns exactly the prefixes containing the key, in
// strictly decreasing plen order, and its head agrees with Lookup.
func TestLookupAllComplete(t *testing.T) {
	rng := xrand.New(33)
	tr := MustNew(Config16())
	type pfx struct {
		v    uint64
		plen int
		lab  label.Label
	}
	var all []pfx
	seen := map[[2]uint64]bool{}
	for i := 0; i < 250; i++ {
		plen := rng.Intn(17)
		v := rng.Uint64() & bitops.Mask64(plen, 16)
		if seen[[2]uint64{v, uint64(plen)}] {
			continue
		}
		seen[[2]uint64{v, uint64(plen)}] = true
		if err := tr.Insert(v, plen, label.Label(i)); err != nil {
			t.Fatal(err)
		}
		all = append(all, pfx{v, plen, label.Label(i)})
	}
	var scratch []MatchedEntry
	for probe := 0; probe < 3000; probe++ {
		key := rng.Uint64() & 0xFFFF
		scratch = tr.LookupAll(key, scratch[:0])
		// Completeness and soundness against brute force.
		want := map[label.Label]int{}
		for _, p := range all {
			if bitops.PrefixContains(p.v, p.plen, 16, key) {
				want[p.lab] = p.plen
			}
		}
		if len(scratch) != len(want) {
			t.Fatalf("key %#x: %d matches, want %d", key, len(scratch), len(want))
		}
		for i, m := range scratch {
			if wantPlen, ok := want[m.Label]; !ok || wantPlen != m.Plen {
				t.Fatalf("key %#x: spurious or wrong match %+v", key, m)
			}
			if i > 0 && scratch[i-1].Plen <= m.Plen {
				t.Fatalf("key %#x: matches not strictly decreasing: %+v", key, scratch)
			}
		}
		// Head agrees with Lookup.
		lab, plen, ok := tr.Lookup(key)
		if ok != (len(scratch) > 0) {
			t.Fatalf("key %#x: Lookup ok=%v, LookupAll len=%d", key, ok, len(scratch))
		}
		if ok && (scratch[0].Label != lab || scratch[0].Plen != plen) {
			t.Fatalf("key %#x: head %+v, Lookup %d/%d", key, scratch[0], lab, plen)
		}
	}
}
