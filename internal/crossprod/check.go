package crossprod

import (
	"fmt"
	"maps"

	"ofmtl/internal/label"
)

// Check verifies a live table's structure, the store first and then every
// stage. For each control array: used and the tombstone count equal the
// full bytes and tombstones it holds, every full byte is ctrlOf its
// slot's bucket hash, and every live key is reachable from its home
// bucket without crossing an empty byte. For the store's bindings: every
// chain is ordered by descending priority, then ascending sequence, no
// overflow record sits on two chains or on a chain and the freelist, and
// the distinct-binding count is the chains' length. For the stages: a
// table of dims > 2 has one per prefix length n in [2, dims), and stage n
// holds exactly the words of the distinct n-label prefixes of the live
// keys (the packed pair for n = 2, the XOR-fold hash beyond), each with a
// reference count equal to the sum of the binding references under that
// prefix. A stage only prunes lookups, so a stale one changes no verdict
// until it drops a live prefix; this check sees it at once. It walks
// every slot: a test hook, not for the data path.
func (t *Table) Check() error {
	if err := t.ctrl.check(func(i int) uint64 { return t.bucketHash(t.slots.Get(i).hk) }); err != nil {
		return fmt.Errorf("crossprod: store: %w", err)
	}
	if err := t.checkBindings(); err != nil {
		return fmt.Errorf("crossprod: store: %w", err)
	}
	if want := max(t.dims-2, 0); len(t.stages) != want {
		return fmt.Errorf("crossprod: %d-dimension table has %d stages, want %d", t.dims, len(t.stages), want)
	}
	keys := liveKeys(t)
	for si, s := range t.stages {
		n := si + 2
		if err := s.ctrl.check(func(i int) uint64 { return s.bucketHash(s.words.Get(i)) }); err != nil {
			return fmt.Errorf("crossprod: stage %d: %w", n, err)
		}
		want := map[uint64]int32{}
		for _, k := range keys {
			p := k.key[:n]
			want[stageWord(p, HashKey(p))] += k.refs
		}
		if got := stageRefs(s); !maps.Equal(got, want) {
			return fmt.Errorf("crossprod: stage %d holds %v, want %v", n, got, want)
		}
	}
	return nil
}

// checkBindings verifies the binding chains and the overflow freelist.
func (t *Table) checkBindings() error {
	chained := map[int32]int{} // overflow record → the slot whose chain holds it
	bindings := 0
	for i := 0; i < t.ctrl.slots(); i++ {
		if t.ctrl.at(uint64(i))&ctrlFull == 0 {
			continue
		}
		prev := t.slots.Get(i).head
		bindings++
		for cur := prev.next; cur != noNext; {
			if at, dup := chained[cur]; dup {
				return fmt.Errorf("overflow record %d is on the chains of slots %d and %d", cur, at, i)
			}
			chained[cur] = i
			o := t.over.Get(int(cur))
			if o.Priority > prev.Priority || o.Priority == prev.Priority && o.seq < prev.seq {
				return fmt.Errorf("slot %d chains priority %d seq %d after priority %d seq %d", i, o.Priority, o.seq, prev.Priority, prev.seq)
			}
			bindings++
			prev, cur = o, o.next
		}
	}
	for _, f := range t.ctl.freeOver {
		if at, live := chained[f]; live {
			return fmt.Errorf("free overflow record %d is on the chain of slot %d", f, at)
		}
	}
	if bindings != t.bindingCount {
		return fmt.Errorf("chains hold %d bindings, counted %d", bindings, t.bindingCount)
	}
	return nil
}

// liveKey is one live key with the sum of its bindings' references.
type liveKey struct {
	key  []label.Label
	refs int32
}

// liveKeys returns every live key of tbl, read from the slots and
// overflow chains.
func liveKeys(tbl *Table) []liveKey {
	var out []liveKey
	for i := 0; i < tbl.ctrl.slots(); i++ {
		if tbl.ctrl.at(uint64(i))&ctrlFull == 0 {
			continue
		}
		sl := tbl.slots.Get(i)
		var key []label.Label
		if tbl.packed {
			key = []label.Label{label.Label(uint32(sl.hk))}
			if tbl.dims == 2 {
				key = append(key, label.Label(sl.hk>>32))
			}
		} else {
			key = tbl.keyAt(i)
		}
		refs := sl.head.refs
		for cur := sl.head.next; cur != noNext; cur = tbl.over.Get(int(cur)).next {
			refs += tbl.over.Get(int(cur)).refs
		}
		out = append(out, liveKey{key, refs})
	}
	return out
}

// stageRefs returns the words stage s stores with their reference counts.
func stageRefs(s *stage) map[uint64]int32 {
	out := map[uint64]int32{}
	for i := 0; i < s.ctrl.slots(); i++ {
		if s.ctrl.at(uint64(i))&ctrlFull != 0 {
			out[s.words.Get(i)] = s.ctl.refs[i]
		}
	}
	return out
}
