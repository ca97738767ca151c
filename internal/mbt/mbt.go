// Package mbt implements the multi-bit trie (MBT) used by the paper for
// longest-prefix matching of the wide header fields (Ethernet and IP
// addresses). Each 16-bit field partition is searched by its own trie; the
// paper distributes each trie over three levels (citing [22] for the
// trade-off between lookup depth and memory), so the default stride
// configuration is {5, 5, 6} — which also reproduces the paper's
// observation that level 1 never stores more than 2^5 = 32 nodes.
//
// The trie performs controlled prefix expansion: a prefix whose length
// falls inside a level's stride is expanded into every slot it covers at
// that level. Each slot stores the labels of the prefixes expanded into it
// (longest first), so a lookup is a fixed three-step walk that remembers
// the last label seen — exactly the pipeline structure of the paper's
// Fig. 1, where each node level is searched in a different pipeline stage.
//
// Memory layout. The trie is pointer-free, mirroring the index-addressed
// fixed-width memories of the paper's architecture: each level owns one
// dense slot arena, a node is a contiguous block of 2^stride slots inside
// that arena (node i occupies slots [i<<stride, (i+1)<<stride)), and a
// child reference is the child node's index at the next level — exactly
// the "next-node index" a hardware stage would drive onto the next
// memory's address bus. The common one-entry slot stores its entry inline;
// additional entries expanded into the same slot spill into a per-trie
// arena of singly-linked records (see overEntry). A lookup is therefore
// three array indexes with no hashing and no pointer chasing on the
// one-entry fast path.
//
// Sharing. The arenas are paged (internal/cow): Publish returns an
// immutable view — the page directories plus the population counters the
// memory model reads — that shares every page with the live trie, and the
// live trie copies a page the first time it writes it after a publish.
// What only updates touch (node freelists, per-node occupancy, the
// overflow freelist) is control state: it lives behind one pointer, is
// never copied and is absent from views.
//
// Terminology used throughout (see the package notes below for the calibration
// rationale):
//
//   - a NODE is an allocated child array at some level (2^stride slots);
//   - a SLOT is one element of a node's array;
//   - the paper's "stored nodes" corresponds to CapacitySlots: the total
//     number of slots in allocated arrays (the root array is always
//     allocated, hence L1's fixed 32).
package mbt

import (
	"fmt"
	"slices"

	"ofmtl/internal/cow"
	"ofmtl/internal/label"
)

// DefaultStrides16 is the 3-level stride split of a 16-bit partition used
// throughout the paper's evaluation.
var DefaultStrides16 = []int{5, 5, 6}

// Config describes a trie: the key width in bits and the per-level strides,
// which must be positive and sum to the width.
type Config struct {
	Width   int
	Strides []int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Width > 64 {
		return fmt.Errorf("mbt: width %d out of range (1..64)", c.Width)
	}
	if len(c.Strides) == 0 {
		return fmt.Errorf("mbt: no strides configured")
	}
	sum := 0
	for i, s := range c.Strides {
		if s <= 0 || s > 32 {
			return fmt.Errorf("mbt: stride %d at level %d out of range", s, i+1)
		}
		sum += s
	}
	if sum != c.Width {
		return fmt.Errorf("mbt: strides sum to %d, want width %d", sum, c.Width)
	}
	return nil
}

// Config16 returns the paper's default configuration for a 16-bit field
// partition: three levels with strides {5, 5, 6}.
func Config16() Config {
	return Config{Width: 16, Strides: append([]int(nil), DefaultStrides16...)}
}

type slotEntry struct {
	plen  int32
	label label.Label
}

// noIndex marks an absent child node or an empty overflow chain.
const noIndex = int32(-1)

// slot is one element of a node's dense array. The head entry (the
// longest-prefix answer for any key reaching the slot) is stored inline;
// entries beyond the head live in the trie's overflow arena as a chain
// starting at over. cnt counts all entries including the head.
type slot struct {
	child int32 // child node index at the next level, or noIndex
	cnt   int32 // number of entries expanded into this slot
	over  int32 // overflow chain head in Trie.over, or noIndex
	head  slotEntry
}

func (s *slot) empty() bool { return s.child == noIndex && s.cnt == 0 }

// overEntry is one spilled slot entry in the per-trie overflow arena.
// Chains are kept sorted by descending prefix length (ties keep insertion
// order), continuing the order that starts at the slot's inline head.
type overEntry struct {
	e    slotEntry
	next int32
}

// level is the lookup state of one trie level: its geometry (precomputed
// in New so lookups do no per-call stride arithmetic), its paged slot
// arena and the population counters the memory model reads.
type level struct {
	stride int
	shift  uint   // key >> shift isolates this level's chunk (before masking)
	mask   uint32 // (1 << stride) - 1
	before int    // key bits consumed by earlier levels

	// slots is the level's node arena: node i occupies slots
	// [i<<stride, (i+1)<<stride) of the nslots allocated so far. Freed
	// node blocks are recycled through the control state's freelist
	// rather than compacted, so node indexes stay stable.
	slots  cow.Array[slotGroup]
	nslots int

	nodes         int
	occupiedSlots int
	entries       int
}

// Slot geometry: a level's arena pages groups of slots so that one
// directory entry covers 1024 slots (a 20 KiB page) whatever
// cow.PageSize is. A trie step reads one directory entry before its
// slot, and a level's directory stays short enough to stay cached under
// random lookups. The price is paid by updates that write a trie, which
// copy 20 KiB per page: the pipeline's tries are written only when a
// partition value gains its first user or loses its last.
const (
	slotPageShift  = 10
	slotGroupShift = slotPageShift - cow.PageShift
	slotGroupMask  = 1<<slotGroupShift - 1
)

type slotGroup [1 << slotGroupShift]slot

// at returns arena slot i for reading. Every slot of an allocated node
// has its page.
func (lv *level) at(i int) *slot {
	return &lv.slots.Dir[i>>slotPageShift][i>>slotGroupShift&cow.PageMask][i&slotGroupMask]
}

// mut returns arena slot i for writing, in a page private to the live
// side (cow.Array.Mut).
func (lv *level) mut(i int) *slot {
	return &lv.slots.Mut(i >> slotGroupShift)[i&slotGroupMask]
}

// levelControl is the update-only state of one level.
type levelControl struct {
	freeNodes []int32
	// occ[i] counts the occupied slots of node i, so Delete can prune a
	// node the moment its last slot empties without rescanning the block.
	occ []int32
}

// control is the state only updates touch. A published view has none.
type control struct {
	levels []levelControl
	// freeOver stacks recycled overflow records; nover counts the records
	// ever allocated.
	freeOver []int32
	nover    int
	// view caches the last published view until the next mutation.
	view *Trie
}

// LevelStats reports the per-level memory population of the trie.
type LevelStats struct {
	Level         int // 1-based
	Stride        int
	Nodes         int // allocated node arrays
	OccupiedSlots int // slots holding at least one entry or a child pointer
	CapacitySlots int // Nodes << Stride: the paper's "stored nodes"
	Entries       int // slot entries, counting prefix-expansion copies
}

// Trie is a multi-bit trie with controlled prefix expansion. Create one
// with New; the zero value is not usable. A Trie returned by Publish is an
// immutable view: lookups and statistics work on it, mutating it panics.
type Trie struct {
	cfg    Config
	levels []level

	// over is the overflow arena holding every entry beyond a slot's
	// inline head.
	over cow.Array[overEntry]

	// levelOf and beforeOf map a prefix length to the level it expands at
	// and the key bits consumed before that level (precomputed so the
	// update path does no per-call stride walking). Immutable after New.
	levelOf  []int8
	beforeOf []int8

	// entryInserts counts every slot-entry insertion performed over the
	// trie's lifetime (including expansion copies); it drives the update
	// cost model.
	entryInserts uint64

	ctl *control // nil in a published view
}

// New creates a trie from cfg.
func New(cfg Config) (*Trie, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Trie{
		cfg:      cfg,
		levels:   make([]level, len(cfg.Strides)),
		levelOf:  make([]int8, cfg.Width+1),
		beforeOf: make([]int8, cfg.Width+1),
		ctl:      &control{levels: make([]levelControl, len(cfg.Strides))},
	}
	shift := cfg.Width
	cum := 0
	for i, s := range cfg.Strides {
		shift -= s
		t.levels[i] = level{
			stride: s,
			shift:  uint(shift),
			mask:   uint32(1)<<uint(s) - 1,
			before: cum,
		}
		cum += s
	}
	for plen := 0; plen <= cfg.Width; plen++ {
		lvl, before := levelIndexOf(cfg.Strides, plen)
		t.levelOf[plen] = int8(lvl)
		t.beforeOf[plen] = int8(before)
	}
	// The root array always exists: node 0 of level 1.
	t.allocNode(0)
	return t, nil
}

// levelIndexOf returns the level (0-based) at which a prefix of length
// plen is expanded, and the number of key bits consumed before that level.
func levelIndexOf(strides []int, plen int) (lvl, before int) {
	cum := 0
	for i, s := range strides {
		if plen <= cum+s {
			return i, cum
		}
		cum += s
	}
	return len(strides) - 1, cum - strides[len(strides)-1]
}

// MustNew is New for known-good configurations; it panics on invalid
// configuration and is intended for package-level defaults and tests.
func MustNew(cfg Config) *Trie {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the trie's configuration.
func (t *Trie) Config() Config { return t.cfg }

// chunk extracts the stride-sized index for level lvl from key.
func (t *Trie) chunk(key uint64, lvl int) uint32 {
	lv := &t.levels[lvl]
	return uint32(key>>lv.shift) & lv.mask
}

// allocNode allocates (or recycles) a node block at level lvl, empties its
// slots and returns its index.
func (t *Trie) allocNode(lvl int) int32 {
	lv, lc := &t.levels[lvl], &t.ctl.levels[lvl]
	lv.nodes++
	var id int32
	if n := len(lc.freeNodes); n > 0 {
		id = lc.freeNodes[n-1]
		lc.freeNodes = lc.freeNodes[:n-1]
		lc.occ[id] = 0
	} else {
		id = int32(lv.nslots >> uint(lv.stride))
		lv.nslots += 1 << uint(lv.stride)
		lc.occ = append(lc.occ, 0)
	}
	base := int(id) << uint(lv.stride)
	for i := base; i < base+(1<<uint(lv.stride)); i++ {
		*lv.mut(i) = slot{child: noIndex, over: noIndex}
	}
	return id
}

// freeNode returns a node block to level lvl's freelist.
func (t *Trie) freeNode(lvl int, id int32) {
	lc := &t.ctl.levels[lvl]
	lc.freeNodes = append(lc.freeNodes, id)
	t.levels[lvl].nodes--
}

// slotIndex returns the arena index of slot idx of node id at level lvl.
func (t *Trie) slotIndex(lvl int, id int32, idx uint32) int {
	return int(id)<<uint(t.levels[lvl].stride) + int(idx)
}

// slotAt reads slot idx of node id at level lvl.
func (t *Trie) slotAt(lvl int, id int32, idx uint32) slot {
	return *t.levels[lvl].at(t.slotIndex(lvl, id, idx))
}

// slotMut returns slot idx of node id at level lvl for writing.
func (t *Trie) slotMut(lvl int, id int32, idx uint32) *slot {
	return t.levels[lvl].mut(t.slotIndex(lvl, id, idx))
}

// allocOver allocates (or recycles) an overflow record holding e with the
// given successor and returns its index.
func (t *Trie) allocOver(e slotEntry, next int32) int32 {
	c := t.ctl
	var idx int32
	if n := len(c.freeOver); n > 0 {
		idx = c.freeOver[n-1]
		c.freeOver = c.freeOver[:n-1]
	} else {
		idx = int32(c.nover)
		c.nover++
	}
	*t.over.Mut(int(idx)) = overEntry{e: e, next: next}
	return idx
}

// freeOverAt recycles overflow record idx. The record itself is left as
// it is — views may still chain through it — and is overwritten when
// reallocated.
func (t *Trie) freeOverAt(idx int32) {
	t.ctl.freeOver = append(t.ctl.freeOver, idx)
}

// Insert adds the prefix value/plen with the given label. value is given in
// the low Width bits; bits below the prefix are ignored. Duplicate
// (value, plen) pairs may be inserted (each occupies an entry), which the
// no-label ablation uses to model rule replication; the labelled pipeline
// inserts each unique value exactly once.
func (t *Trie) Insert(value uint64, plen int, lab label.Label) error {
	if plen < 0 || plen > t.cfg.Width {
		return fmt.Errorf("mbt: prefix length %d out of range (0..%d)", plen, t.cfg.Width)
	}
	t.ctl.view = nil
	lvl := int(t.levelOf[plen])
	before := int(t.beforeOf[plen])

	node := int32(0)
	for i := 0; i < lvl; i++ {
		sl := t.slotAt(i, node, t.chunk(value, i))
		if sl.child == noIndex {
			sl.child = t.allocNode(i + 1)
			t.slotMut(i, node, t.chunk(value, i)).child = sl.child
			if sl.cnt == 0 {
				t.markOccupied(i, node)
			}
		}
		node = sl.child
	}

	stride := t.cfg.Strides[lvl]
	free := before + stride - plen // expansion bits within this level
	prefixBits := plen - before    // prefix bits within this level (may be 0)
	base := uint32(0)
	if prefixBits > 0 {
		base = (t.chunk(value, lvl) >> uint(free)) << uint(free)
	}
	count := uint32(1) << uint(free)
	e := slotEntry{plen: int32(plen), label: lab}
	for i := uint32(0); i < count; i++ {
		t.insertEntry(lvl, node, base+i, e)
	}
	return nil
}

// markOccupied records the empty→occupied transition of one slot of node
// id at level lvl.
func (t *Trie) markOccupied(lvl int, id int32) {
	t.levels[lvl].occupiedSlots++
	t.ctl.levels[lvl].occ[id]++
}

// markVacated records the occupied→empty transition of one slot of node
// id at level lvl.
func (t *Trie) markVacated(lvl int, id int32) {
	t.levels[lvl].occupiedSlots--
	t.ctl.levels[lvl].occ[id]--
}

// insertEntry adds e to slot idx of node id at level lvl, keeping the
// slot's entries sorted by descending prefix length; equal lengths keep
// insertion order (stable), so lookups prefer the longest prefix.
func (t *Trie) insertEntry(lvl int, id int32, idx uint32, e slotEntry) {
	sl := t.slotMut(lvl, id, idx)
	if sl.empty() {
		t.markOccupied(lvl, id)
	}
	switch {
	case sl.cnt == 0:
		sl.head = e
	case e.plen > sl.head.plen:
		// The new entry is the longest: the old head spills to the front
		// of the overflow chain.
		sl.over = t.allocOver(sl.head, sl.over)
		sl.head = e
	default:
		// Walk the chain past every entry with plen >= e.plen (stability:
		// equal lengths keep insertion order) and splice e in.
		prev := noIndex
		cur := sl.over
		for cur != noIndex {
			o := t.over.Get(int(cur))
			if o.e.plen < e.plen {
				break
			}
			prev, cur = cur, o.next
		}
		rec := t.allocOver(e, cur)
		if prev == noIndex {
			sl.over = rec
		} else {
			t.over.Mut(int(prev)).next = rec
		}
	}
	sl.cnt++
	t.levels[lvl].entries++
	t.entryInserts++
}

// slotContains reports whether the slot holds an entry equal to e.
func (t *Trie) slotContains(sl slot, e slotEntry) bool {
	if sl.cnt == 0 {
		return false
	}
	if sl.head == e {
		return true
	}
	for cur := sl.over; cur != noIndex; {
		o := t.over.Get(int(cur))
		if o.e == e {
			return true
		}
		cur = o.next
	}
	return false
}

// removeEntry removes the first occurrence of e from slot idx of node id
// at level lvl. The entry must be present.
func (t *Trie) removeEntry(lvl int, id int32, idx uint32, e slotEntry) {
	sl := t.slotMut(lvl, id, idx)
	if sl.head == e {
		if sl.over != noIndex {
			next := sl.over
			o := t.over.Get(int(next))
			sl.head, sl.over = o.e, o.next
			t.freeOverAt(next)
		}
	} else {
		prev := noIndex
		for cur := sl.over; cur != noIndex; {
			o := t.over.Get(int(cur))
			if o.e == e {
				if prev == noIndex {
					sl.over = o.next
				} else {
					t.over.Mut(int(prev)).next = o.next
				}
				t.freeOverAt(cur)
				break
			}
			prev, cur = cur, o.next
		}
	}
	sl.cnt--
	t.levels[lvl].entries--
	if sl.empty() {
		t.markVacated(lvl, id)
	}
}

// Delete removes one occurrence of the prefix value/plen with the given
// label, pruning empty slots and nodes. It returns an error if the entry is
// not present.
func (t *Trie) Delete(value uint64, plen int, lab label.Label) error {
	if plen < 0 || plen > t.cfg.Width {
		return fmt.Errorf("mbt: prefix length %d out of range (0..%d)", plen, t.cfg.Width)
	}
	t.ctl.view = nil
	lvl := int(t.levelOf[plen])
	before := int(t.beforeOf[plen])

	// Collect the node path so we can prune on the way back up. Widths are
	// capped at 64 bits, so the path never exceeds 64 levels.
	var pathArr [64]int32
	path := pathArr[:0]
	node := int32(0)
	path = append(path, node)
	for i := 0; i < lvl; i++ {
		sl := t.slotAt(i, node, t.chunk(value, i))
		if sl.child == noIndex {
			return fmt.Errorf("mbt: delete of absent prefix %#x/%d", value, plen)
		}
		node = sl.child
		path = append(path, node)
	}

	stride := t.cfg.Strides[lvl]
	free := before + stride - plen
	prefixBits := plen - before
	base := uint32(0)
	if prefixBits > 0 {
		base = (t.chunk(value, lvl) >> uint(free)) << uint(free)
	}
	count := uint32(1) << uint(free)

	// Verify presence in every covered slot before mutating anything, so a
	// failed delete leaves the trie unchanged.
	target := slotEntry{plen: int32(plen), label: lab}
	for i := uint32(0); i < count; i++ {
		if !t.slotContains(t.slotAt(lvl, node, base+i), target) {
			return fmt.Errorf("mbt: delete of absent prefix %#x/%d", value, plen)
		}
	}
	for i := uint32(0); i < count; i++ {
		t.removeEntry(lvl, node, base+i, target)
	}

	// Prune empty child nodes bottom-up along the walk path.
	for i := lvl; i >= 1; i-- {
		child := path[i]
		if t.ctl.levels[i].occ[child] != 0 {
			break
		}
		parent := path[i-1]
		sl := t.slotMut(i-1, parent, t.chunk(value, i-1))
		sl.child = noIndex
		t.freeNode(i, child)
		if sl.empty() {
			t.markVacated(i-1, parent)
		}
	}
	return nil
}

// Publish returns an immutable view of the trie as it stands: the level
// geometry and counters by value, every arena page shared. Later updates
// to t never show in the view — they copy the pages they write — and the
// same view is returned until the next update. Safe for concurrent
// lookups; mutating a view panics.
func (t *Trie) Publish() *Trie {
	c := t.ctl
	if c.view == nil {
		v := &Trie{
			cfg:          t.cfg,
			levels:       slices.Clone(t.levels),
			over:         t.over.Publish(),
			levelOf:      t.levelOf,
			beforeOf:     t.beforeOf,
			entryInserts: t.entryInserts,
		}
		for i := range v.levels {
			v.levels[i].slots = t.levels[i].slots.Publish()
		}
		c.view = v
	}
	return c.view
}

// Lookup returns the label of the longest prefix matching key, together
// with its length. ok is false when no prefix matches.
func (t *Trie) Lookup(key uint64) (lab label.Label, plen int, ok bool) {
	node := int32(0)
	for l := range t.levels {
		lv := &t.levels[l]
		i := int(node)<<uint(lv.stride) + int(uint32(key>>lv.shift)&lv.mask)
		sl := lv.at(i)
		if sl.cnt > 0 {
			// The head is the longest entry and deeper levels always hold
			// strictly longer prefixes, so overwrite the best match.
			lab, plen, ok = sl.head.label, int(sl.head.plen), true
		}
		if sl.child == noIndex {
			break
		}
		node = sl.child
	}
	return lab, plen, ok
}

// MatchedEntry is one prefix matched during a LookupAll walk.
type MatchedEntry struct {
	Label label.Label
	Plen  int
}

// LookupAll appends every prefix matching key to dst, ordered by
// descending prefix length, and returns the extended slice. Every entry
// expanded into a slot on the key's walk path covers the key, so the walk
// collects complete match sets without backtracking — the property the
// crossproduct index-calculation stage relies on.
func (t *Trie) LookupAll(key uint64, dst []MatchedEntry) []MatchedEntry {
	dst, _ = t.LookupAllTraced(key, dst)
	return dst
}

// LookupAllTraced is LookupAll plus a consulted-bits report: consumed is
// the number of leading key bits the walk actually indexed on (the
// cumulative stride of the deepest level visited). Two keys agreeing on
// their top consumed bits take the identical walk path and collect the
// identical match set, which is the property wildcard-caching layers
// above rely on.
func (t *Trie) LookupAllTraced(key uint64, dst []MatchedEntry) (out []MatchedEntry, consumed int) {
	start := len(dst)
	node := int32(0)
	for l := range t.levels {
		lv := &t.levels[l]
		consumed = lv.before + lv.stride
		i := int(node)<<uint(lv.stride) + int(uint32(key>>lv.shift)&lv.mask)
		sl := lv.at(i)
		if sl.cnt > 0 {
			dst = append(dst, MatchedEntry{Label: sl.head.label, Plen: int(sl.head.plen)})
			for cur := sl.over; cur != noIndex; {
				o := &t.over.Dir[cur>>cow.PageShift][cur&cow.PageMask]
				dst = append(dst, MatchedEntry{Label: o.e.label, Plen: int(o.e.plen)})
				cur = o.next
			}
		}
		if sl.child == noIndex {
			break
		}
		node = sl.child
	}
	// Slots were visited shallow-to-deep, so the region is roughly
	// ascending in plen; an insertion sort into descending order is cheap
	// (the region holds at most one entry per prefix length).
	region := dst[start:]
	for i := 1; i < len(region); i++ {
		for j := i; j > 0 && region[j-1].Plen < region[j].Plen; j-- {
			region[j-1], region[j] = region[j], region[j-1]
		}
	}
	return dst, consumed
}

// Stats returns per-level population counts.
func (t *Trie) Stats() []LevelStats {
	out := make([]LevelStats, len(t.levels))
	for i := range t.levels {
		lv := &t.levels[i]
		out[i] = LevelStats{
			Level:         i + 1,
			Stride:        lv.stride,
			Nodes:         lv.nodes,
			OccupiedSlots: lv.occupiedSlots,
			CapacitySlots: lv.nodes << uint(lv.stride),
			Entries:       lv.entries,
		}
	}
	return out
}

// StoredNodes returns the paper's "number of stored nodes": the total
// capacity slots across the trie's allocated node arrays.
func (t *Trie) StoredNodes() int {
	total := 0
	for i := range t.levels {
		total += t.levels[i].nodes << uint(t.levels[i].stride)
	}
	return total
}

// EntryInserts reports the number of slot-entry insertions performed over
// the trie's lifetime, the quantity the update-cost model charges for.
func (t *Trie) EntryInserts() uint64 { return t.entryInserts }

// Levels returns the number of trie levels.
func (t *Trie) Levels() int { return len(t.cfg.Strides) }

// CapacitySlots returns level lvl's capacity slots (nodes << stride) —
// the paper's "stored nodes" for that level — without materialising a
// stats slice, for callers on the per-commit accounting path.
func (t *Trie) CapacitySlots(lvl int) int {
	if lvl < 0 || lvl >= len(t.levels) {
		return 0
	}
	return t.levels[lvl].nodes << uint(t.levels[lvl].stride)
}
