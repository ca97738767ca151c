package crossprod

import (
	"ofmtl/internal/cow"
	"ofmtl/internal/label"
)

// stage is one combiner stage of a Table: the set of n-label prefixes of
// the table's stored keys, each with a reference count (one per binding
// reference under the prefix). A prefix is stored as one word — the
// packed label pair when n = 2, its XOR-fold hash (HashKey) when n > 2 —
// so a stage is an open-addressed set of 8-byte words behind the same
// kind of control array as Table, paged and shared with views the same
// way. Two longer prefixes whose hashes collide share an entry; that can
// only make HasPrefix report present a prefix that is not, which costs a
// walk one needless descent and never a key.
//
// The reference counts are control state: referencing a prefix already
// present writes no page a view shares. Only adding or dropping a prefix
// touches lookup state.
type stage struct {
	ctrl  ctrlArray
	mixed bool // n = 2: packed pairs need mixing into a bucket hash
	words cow.Array[uint64]
	ctl   *stageControl // nil in a published view
}

type stageControl struct {
	refs []int32 // per slot, for full slots
	// view is the last published view, nil once a prefix was added or
	// dropped.
	view *stage
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

// find returns the slot holding w, or -1. It reads the control bytes and,
// past a matching one, the word; never the counts.
func (s *stage) find(w uint64) int {
	if s.ctrl.used == 0 {
		return -1
	}
	bh := s.bucketHash(w)
	want := ctrlOf(bh)
	for i := s.ctrl.match(bh, want); i >= 0; i = s.ctrl.match(uint64(i)+1, want) {
		if s.words.Dir[i>>cow.PageShift][i&cow.PageMask] == w {
			return i
		}
	}
	return -1
}

// ref adds delta references to w, storing it on its first reference and
// dropping it on its last. A negative delta requires w to be stored.
func (s *stage) ref(w uint64, delta int32) {
	c := s.ctl
	if i := s.find(w); i >= 0 {
		if c.refs[i] += delta; c.refs[i] == 0 {
			s.ctrl.tomb(i)
			c.view = nil
		}
		return
	}
	if s.ctrl.needsGrow() {
		s.grow((s.ctrl.used + 1) * 4)
	}
	i := s.ctrl.claim(s.bucketHash(w))
	*s.words.Mut(i) = w
	c.refs[i] = delta
	c.view = nil
}

// grow rehashes into fresh arrays of at least minSlots buckets, dropping
// tombstones; views keep the old ones.
func (s *stage) grow(minSlots int) {
	c := s.ctl
	old := s.ctrl.reset(minSlots)
	oldWords, oldRefs := s.words, c.refs
	s.words, c.refs = cow.Array[uint64]{}, make([]int32, s.ctrl.slots())
	s.words.Grow(s.ctrl.slots())
	for oi := 0; oi < old.slots(); oi++ {
		if old.at(uint64(oi))&ctrlFull == 0 {
			continue
		}
		w := oldWords.Get(oi)
		i := s.ctrl.claim(s.bucketHash(w))
		*s.words.Mut(i) = w
		c.refs[i] = oldRefs[oi]
	}
}

// publish returns an immutable view sharing every control and word page;
// the same view until a prefix is added or dropped.
func (s *stage) publish() *stage {
	c := s.ctl
	if c.view == nil {
		c.view = &stage{ctrl: s.ctrl.publish(), mixed: s.mixed, words: s.words.Publish()}
	}
	return c.view
}
