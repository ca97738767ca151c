package crossprod

import (
	"fmt"
	"maps"
	"slices"

	"ofmtl/internal/cow"
	"ofmtl/internal/label"
)

// stage is one combiner stage of a Table: the set of n-label prefixes of
// the table's stored keys, each with a reference count (one per binding
// reference under the prefix). A prefix is stored as one word — the
// packed label pair when n = 2, its XOR-fold hash (HashKey) when n > 2 —
// so a stage is an open-addressed set of 8-byte words behind the same
// control bytes as Table. Two longer prefixes whose hashes collide share
// an entry; that can only make HasPrefix report present a prefix that is
// not, which costs a walk one needless descent and never a key.
//
// The reference counts are control state: referencing a prefix already
// present writes no page a view shares. Only adding or dropping a prefix
// touches lookup state.
type stage struct {
	ctrl  []uint8 // per-slot control byte, as in Table
	mask  uint64
	used  int
	mixed bool // n = 2: packed pairs need mixing into a bucket hash
	words cow.Array[uint64]
	ctl   *stageControl // nil in a published view
}

type stageControl struct {
	refs  []int32 // per slot, for full slots
	tombs int
	// ctrlPub and view play the roles of Table's control fields of the
	// same names.
	ctrlPub []uint8
	view    *stage
}

func newStage(n int) *stage {
	return &stage{mixed: n == 2, ctl: new(stageControl)}
}

// stageWord returns the word stage n stores for a prefix whose
// XOR-fold hash is h.
func stageWord(prefix []label.Label, h uint64) uint64 {
	if len(prefix) == 2 {
		return pack(prefix)
	}
	return h
}

func (s *stage) bucketHash(w uint64) uint64 {
	if s.mixed {
		return mix64(w)
	}
	return w
}

// find returns the slot holding w, or -1.
func (s *stage) find(w uint64) int {
	if s.used == 0 {
		return -1
	}
	bh := s.bucketHash(w)
	want := ctrlOf(bh)
	for i := bh & s.mask; ; i = (i + 1) & s.mask {
		switch c := s.ctrl[i]; {
		case c == ctrlEmpty:
			return -1
		case c == want && s.words.Get(int(i)) == w:
			return int(i)
		}
	}
}

// has reports whether w is stored. It reads the control bytes and, past a
// matching one, the word; never the counts.
func (s *stage) has(w uint64) bool {
	if s.used == 0 {
		return false
	}
	bh := s.bucketHash(w)
	want := ctrlOf(bh)
	ctrl, mask := s.ctrl, s.mask
	for i := bh; ; i++ {
		c := ctrl[i&mask]
		if c == ctrlEmpty {
			return false
		}
		if c == want {
			j := i & mask
			if s.words.Dir[j>>cow.PageShift][j&cow.PageMask] == w {
				return true
			}
		}
	}
}

// ref adds delta references to w, storing it on its first reference and
// dropping it on its last. A negative delta requires w to be stored.
func (s *stage) ref(w uint64, delta int32) {
	c := s.ctl
	if i := s.find(w); i >= 0 {
		if c.refs[i] += delta; c.refs[i] == 0 {
			s.ctrl[i] = ctrlTomb
			s.used--
			c.tombs++
			c.ctrlPub, c.view = nil, nil
		}
		return
	}
	if (s.used+c.tombs+1)*2 > len(s.ctrl) {
		s.grow((s.used + 1) * 4)
	}
	bh := s.bucketHash(w)
	i := bh & s.mask
	for s.ctrl[i]&ctrlFull != 0 {
		i = (i + 1) & s.mask
	}
	if s.ctrl[i] == ctrlTomb {
		c.tombs--
	}
	s.ctrl[i] = ctrlOf(bh)
	*s.words.Mut(int(i)) = w
	c.refs[i] = delta
	s.used++
	c.ctrlPub, c.view = nil, nil
}

// grow rehashes into fresh arrays of at least minSlots buckets, dropping
// tombstones; views keep the old ones.
func (s *stage) grow(minSlots int) {
	n := 8
	for n < minSlots {
		n <<= 1
	}
	c := s.ctl
	oldCtrl, oldWords, oldRefs := s.ctrl, s.words, c.refs
	s.ctrl, s.words, c.refs = make([]uint8, n), cow.Array[uint64]{}, make([]int32, n)
	s.words.Grow(n)
	s.mask = uint64(n - 1)
	c.tombs = 0
	for oi, ctl := range oldCtrl {
		if ctl&ctrlFull == 0 {
			continue
		}
		w := oldWords.Get(oi)
		bh := s.bucketHash(w)
		i := bh & s.mask
		for s.ctrl[i] != ctrlEmpty {
			i = (i + 1) & s.mask
		}
		s.ctrl[i] = ctrlOf(bh)
		*s.words.Mut(int(i)) = w
		c.refs[i] = oldRefs[oi]
	}
}

// publish returns an immutable view sharing the word pages, with the
// control bytes copied flat when they changed; the same view until a
// prefix is added or dropped.
func (s *stage) publish() *stage {
	c := s.ctl
	if c.view == nil {
		if c.ctrlPub == nil {
			c.ctrlPub = slices.Clone(s.ctrl)
		}
		c.view = &stage{ctrl: c.ctrlPub, mask: s.mask, used: s.used, mixed: s.mixed, words: s.words.Publish()}
	}
	return c.view
}

// CheckStages verifies the stage invariant on a live table: a table of
// dims > 2 has one stage per prefix length n in [2, dims), and stage n
// holds exactly the words of the distinct n-label prefixes of the live
// keys (the packed pair for n = 2, the XOR-fold hash beyond), each with a
// reference count equal to the sum of the binding references under that
// prefix. A stage only prunes lookups, so a stale one changes no verdict
// until it drops a live prefix; this check sees it at once. It walks
// every slot: a test hook, not for the data path.
func (t *Table) CheckStages() error {
	if want := max(t.dims-2, 0); len(t.stages) != want {
		return fmt.Errorf("crossprod: %d-dimension table has %d stages, want %d", t.dims, len(t.stages), want)
	}
	keys := liveKeys(t)
	for si, s := range t.stages {
		n := si + 2
		want := map[uint64]int32{}
		for _, k := range keys {
			p := k.key[:n]
			want[stageWord(p, HashKey(p))] += k.refs
		}
		if got := stageRefs(s); !maps.Equal(got, want) || s.used != len(want) {
			return fmt.Errorf("crossprod: stage %d holds %v (%d used), want %v", n, got, s.used, want)
		}
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
	for i, c := range tbl.ctrl {
		if c&ctrlFull == 0 {
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
	for i, c := range s.ctrl {
		if c&ctrlFull != 0 {
			out[s.words.Get(i)] = s.ctl.refs[i]
		}
	}
	return out
}
