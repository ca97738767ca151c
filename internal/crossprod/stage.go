package crossprod

import (
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
