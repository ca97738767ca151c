// Package crossprod implements the index-calculation stage of the paper's
// architecture (Fig. 1, Section IV.C): the labels produced by the parallel
// single-field searches are combined into a key that addresses the action
// tables. The combination store follows the distributed-crossproducting
// idea of reference [11] (Taylor & Turner): only label combinations that
// correspond to installed rules are stored, and each combination carries
// the priority of its best rule so that the lookup stage can resolve
// overlapping candidates.
//
// Bindings are reference counted: inserting the same (key, priority,
// payload) combination twice — as happens when many rules share a
// decomposed sub-pattern — stores it once, and removal frees it only when
// the last user disappears. This mirrors the storage behaviour the label
// method is designed to achieve.
//
// Prefix stages. The paper combines labels progressively (Fig. 1): a
// table of dims > 2 also keeps, for every prefix length n with
// 2 ≤ n < dims, a stage holding the n-label prefixes of its stored keys,
// referenced once per binding reference under them (see stage). A lookup
// that walks candidate labels dimension by dimension asks HasPrefix
// before extending a prefix and so never probes a key below an absent
// prefix: on the 1000-rule 5-field ACL of the benchmark, 30 probes per
// lookup (20 stage + 10 full-key) where an odometer over the candidate
// product per wildcard pattern, with a pair stage only, made 60 (17 +
// 43). Stages are lookup accelerators: Keys, PeakKeys and Bindings — what
// the memory model reads — count the full-key store alone.
//
// Storage layout. The table is open-addressed: combination keys live in a
// flat label arena indexed by slot (no per-key heap encoding), and probes
// hash the raw []label.Label with a per-dimension FNV-1a fold — the
// software analogue of the fixed-width index-calculation memory the paper
// provisions. Tables of at most two dimensions (every table the two-field
// pipeline decomposition produces) pack the whole key into one uint64 and
// compare slots with a single word comparison. Lookups never allocate.
//
// Sharing. A slot is pointer-free: the winning binding sits inline in the
// slot and further bindings chain through a paged overflow arena, so a
// successful probe reads its answer from the slot it matched. Slots, the
// key arena and the overflow arena are paged (internal/cow) and shared
// between the live table and the views Publish returns; the control bytes
// stay one flat array — a probe that misses reads nothing else — and are
// the one part a publish copies whole (1 byte per slot, when they
// changed). Stages are published with their table the same way, so a
// publish of a dims > 2 table copies up to dims−2 more (small)
// control-byte arrays. Tombstone counts, sequence numbers, the overflow
// freelist and the stages' reference counts are control state: behind
// one pointer, never copied, absent from views.
package crossprod

import (
	"fmt"
	"slices"

	"ofmtl/internal/cow"
	"ofmtl/internal/label"
)

// Wildcard is the label used in a combination key for a dimension the rule
// leaves unconstrained.
const Wildcard = label.NoLabel

// Binding is one rule's entry under a combination key.
type Binding struct {
	Priority int
	Payload  uint32 // typically an action-table index
	Ref      uint32 // lifecycle slot of the owning flow (counter attribution)
}

// binding is one stored binding. A key's bindings are ordered by
// descending priority, then sequence: the first is inline in the key's
// slot, the rest follow through next in Table.over.
type binding struct {
	Binding
	seq  uint64 // the caller's rank among equal priorities
	refs int32
	next int32 // overflow record holding the next binding, or noNext
}

// noNext ends a binding chain.
const noNext = int32(-1)

// Control bytes of the open-addressed table. A full slot stores
// ctrlFull | the top 7 bits of its bucket hash, so a probe walking the
// dense control array rejects almost every non-matching slot from one
// byte and a miss usually terminates within a single cache line — the
// Swiss-table idea, scalar variant.
const (
	ctrlEmpty uint8 = 0x00
	ctrlTomb  uint8 = 0x01
	ctrlFull  uint8 = 0x80
)

func ctrlOf(bucketHash uint64) uint8 { return ctrlFull | uint8(bucketHash>>57) }

// xslot is one open-addressed bucket. hk caches the packed uint64 key for
// tables of ≤2 dimensions and the full key hash otherwise, so most probe
// comparisons are a single word compare; wider keys confirm against the
// key arena. head is the key's winning binding.
type xslot struct {
	hk   uint64
	head binding
}

// Table is a combination store over a fixed number of dimensions.
// Create one with New. Lookups are safe for concurrent use with each
// other (they only read); mutations require external serialisation and
// must not run concurrently with lookups on the same Table — concurrent
// readers use a view from Publish, which mutations never touch.
type Table struct {
	// What every probe reads comes first, within one cache line.
	ctrl  []uint8 // per-slot control byte: empty, tombstone, or full+hash7
	mask  uint64  // len(ctrl) - 1; len(ctrl) is a power of two
	used  int     // live keys
	slots cow.Array[xslot]

	dims   int
	packed bool // dims <= 2: keys packed into xslot.hk, no arena
	// kshift spaces the key arena: slot i's key starts at i<<kshift, a
	// power-of-two stride so that no key straddles a page.
	kshift uint
	keys   cow.Array[label.Label] // unpacked tables only
	over   cow.Array[binding]     // bindings beyond each slot's head

	// bindingCount counts live distinct bindings (not references).
	bindingCount int
	// peakKeys tracks the high-water mark of distinct keys, used by the
	// memory model to provision the combination memory.
	peakKeys int

	// stages[n-2] holds the n-label prefixes (2 ≤ n < dims) of the stored
	// keys, each referenced once per binding reference under it — the
	// combiner stages of the paper's progressive index calculation
	// (Fig. 1). A candidate walk asks HasPrefix before extending a prefix
	// and discards every key below an absent one. Stages are lookup
	// accelerators only: the key store above remains the source of truth
	// (and of the memory-model accounting). Tables of ≤2 dimensions have
	// none.
	stages []*stage

	ctl *control // nil in a published view
}

// control is the state only updates touch. A published view has none.
type control struct {
	tombs int // tombstones awaiting the next rehash
	// freeOver stacks recycled overflow records; nover counts the records
	// ever allocated.
	freeOver []int32
	nover    int
	// ctrlPub is the flat copy of ctrl the last view took, nil once a
	// control byte changed; view is that view, nil once anything did.
	ctrlPub []uint8
	view    *Table
}

func newTable(dims int) *Table {
	t := &Table{dims: dims, packed: dims <= 2, ctl: new(control)}
	for 1<<t.kshift < dims {
		t.kshift++
	}
	return t
}

// New returns a table combining `dims` labels per key.
func New(dims int) (*Table, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("crossprod: dimension count %d out of range", dims)
	}
	t := newTable(dims)
	for n := 2; n < dims; n++ {
		t.stages = append(t.stages, newStage(n))
	}
	return t, nil
}

// MustNew is New for known-good dimension counts.
func MustNew(dims int) *Table {
	t, err := New(dims)
	if err != nil {
		panic(err)
	}
	return t
}

// Dims returns the table's dimension count.
func (t *Table) Dims() int { return t.dims }

// FNV-1a constants (64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DimHash returns dimension dim's contribution to a combination key's
// hash: an FNV-1a fold of the label's four bytes seeded with the dimension
// index. A key — or a prefix of one — hashes to the XOR of its
// dimensions' contributions, so a caller walking candidate keys dimension
// by dimension carries one running hash that serves every HasPrefix probe
// and the final full-key probe.
func DimHash(dim int, l label.Label) uint64 {
	h := uint64(fnvOffset64) ^ (uint64(dim)+1)*0x9E3779B97F4A7C15
	v := uint32(l)
	h = (h ^ uint64(v&0xFF)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xFF)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xFF)) * fnvPrime64
	h = (h ^ uint64(v>>24)) * fnvPrime64
	return h
}

// HashKey returns the probe hash of a full combination key: the XOR of
// DimHash over every dimension.
func HashKey(key []label.Label) uint64 {
	var h uint64
	for i, l := range key {
		h ^= DimHash(i, l)
	}
	return h
}

// pack folds a ≤2-dimension key into one uint64.
func pack(key []label.Label) uint64 {
	k := uint64(uint32(key[0]))
	if len(key) == 2 {
		k |= uint64(uint32(key[1])) << 32
	}
	return k
}

// mix64 is the finaliser of MurmurHash3, used to spread packed keys across
// buckets.
func mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

// bucketHash returns the value probes are distributed by: the mixed packed
// key for packed tables, the caller-maintained XOR-fold hash otherwise.
func (t *Table) bucketHash(hk uint64) uint64 {
	if t.packed {
		return mix64(hk)
	}
	return hk
}

// hk returns the slot comparison word for key: the packed key itself for
// packed tables, the XOR-fold hash otherwise.
func (t *Table) hkOf(key []label.Label) uint64 {
	if t.packed {
		return pack(key)
	}
	return HashKey(key)
}

// keyAt returns slot i's key from the arena (unpacked tables only).
func (t *Table) keyAt(i int) []label.Label {
	return t.keys.Span(i<<t.kshift, t.dims)
}

// keysEqual compares key against slot i's stored key.
func (t *Table) keysEqual(i int, key []label.Label) bool {
	stored := t.keyAt(i)
	for d, l := range key {
		if stored[d] != l {
			return false
		}
	}
	return true
}

// findSlot returns the index of the slot holding key, or -1.
func (t *Table) findSlot(hk uint64, key []label.Label) int {
	if t.used == 0 {
		return -1
	}
	bh := t.bucketHash(hk)
	want := ctrlOf(bh)
	i := bh & t.mask
	for {
		c := t.ctrl[i]
		if c == ctrlEmpty {
			return -1
		}
		if c == want && t.slots.Get(int(i)).hk == hk && (t.packed || t.keysEqual(int(i), key)) {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// setCtrl writes one control byte.
func (t *Table) setCtrl(i int, c uint8) {
	t.ctrl[i] = c
	t.ctl.ctrlPub = nil
}

// grow rehashes into a table of at least minSlots buckets, dropping
// tombstones. The new arrays are fresh; views keep the old ones.
func (t *Table) grow(minSlots int) {
	n := 8
	for n < minSlots {
		n <<= 1
	}
	oldCtrl, oldSlots, oldKeys := t.ctrl, t.slots, t.keys
	t.ctrl = make([]uint8, n)
	t.slots, t.keys = cow.Array[xslot]{}, cow.Array[label.Label]{}
	t.slots.Grow(n)
	t.mask = uint64(n - 1)
	t.ctl.tombs = 0
	t.ctl.ctrlPub = nil
	for oi, c := range oldCtrl {
		if c&ctrlFull == 0 {
			continue
		}
		sl := oldSlots.Get(oi)
		bh := t.bucketHash(sl.hk)
		i := bh & t.mask
		for t.ctrl[i] != ctrlEmpty {
			i = (i + 1) & t.mask
		}
		t.ctrl[i] = ctrlOf(bh)
		*t.slots.Mut(int(i)) = sl
		if !t.packed {
			copy(t.keys.MutSpan(int(i)<<t.kshift, t.dims), oldKeys.Span(oi<<t.kshift, t.dims))
		}
	}
}

// claimSlot returns the index of the slot key should be inserted into,
// growing the table as needed. The returned slot is empty or a tombstone.
func (t *Table) claimSlot(hk uint64) int {
	// Keep the load factor (live + tombstones) at or below 1/2, trading a
	// little memory for short miss probes — the index-calculation stage
	// probes mostly-absent candidate combinations.
	if (t.used+t.ctl.tombs+1)*2 > len(t.ctrl) {
		t.grow((t.used + 1) * 4)
	}
	i := t.bucketHash(hk) & t.mask
	for t.ctrl[i]&ctrlFull != 0 {
		i = (i + 1) & t.mask
	}
	return int(i)
}

// allocOver stores b in a fresh (or recycled) overflow record.
func (t *Table) allocOver(b binding) int32 {
	c := t.ctl
	var idx int32
	if n := len(c.freeOver); n > 0 {
		idx = c.freeOver[n-1]
		c.freeOver = c.freeOver[:n-1]
	} else {
		idx = int32(c.nover)
		c.nover++
	}
	*t.over.Mut(int(idx)) = b
	return idx
}

// Insert adds (or references) the binding under the combination key.
// seq ranks bindings of equal priority, here and in the sequence
// LookupSeq reports: the lower wins, and equal sequences keep insertion
// order. A caller that ranks rules by its own install order can remove
// and re-insert a binding without it losing its place.
func (t *Table) Insert(key []label.Label, b Binding, seq uint64) error {
	if len(key) != t.dims {
		return fmt.Errorf("crossprod: key has %d dims, table expects %d", len(key), t.dims)
	}
	t.refStages(key, 1)
	t.ctl.view = nil
	hk := t.hkOf(key)
	si := t.findSlot(hk, key)
	if si < 0 {
		si = t.claimSlot(hk)
		if t.ctrl[si] == ctrlTomb {
			t.ctl.tombs--
		}
		t.setCtrl(si, ctrlOf(t.bucketHash(hk)))
		*t.slots.Mut(si) = xslot{hk: hk, head: binding{Binding: b, seq: seq, refs: 1, next: noNext}}
		if !t.packed {
			copy(t.keys.MutSpan(si<<t.kshift, t.dims), key)
		}
		t.bindingCount++
		t.used++
		if t.used > t.peakKeys {
			t.peakKeys = t.used
		}
		return nil
	}
	// The key exists: reference an equal binding, or splice a new one in,
	// keeping the chain sorted by descending priority, ascending seq, so
	// the head is the winning rule for this combination. The chain is
	// walked read-only; only the records that change are made writable.
	head := t.slots.Get(si).head
	if head.Binding == b {
		t.slots.Mut(si).head.refs++
		return nil
	}
	outranks := func(o *binding) bool { return o.Priority > b.Priority || o.Priority == b.Priority && o.seq <= seq }
	after := noNext // last overflow record outranking b; noNext is the head
	for cur := head.next; cur != noNext; {
		o := t.over.Get(int(cur))
		if o.Binding == b {
			t.over.Mut(int(cur)).refs++
			return nil
		}
		if outranks(&o) {
			after = cur
		}
		cur = o.next
	}
	nb := binding{Binding: b, seq: seq, refs: 1}
	t.bindingCount++
	switch mhead := &t.slots.Mut(si).head; {
	case !outranks(&head):
		nb.next = t.allocOver(head)
		*mhead = nb
	case after == noNext:
		nb.next = head.next
		mhead.next = t.allocOver(nb)
	default:
		prev := t.over.Mut(int(after))
		nb.next = prev.next
		prev.next = t.allocOver(nb)
	}
	return nil
}

// Remove dereferences the binding under the key, deleting it when its
// reference count reaches zero.
func (t *Table) Remove(key []label.Label, b Binding) error {
	if len(key) != t.dims {
		return fmt.Errorf("crossprod: key has %d dims, table expects %d", len(key), t.dims)
	}
	si := t.findSlot(t.hkOf(key), key)
	if si < 0 {
		return fmt.Errorf("crossprod: remove of absent combination %v", key)
	}
	// Locate the binding before touching anything: a remove of an absent
	// binding must leave the table (and its pages) as they were.
	head := t.slots.Get(si).head
	at, prevAt := noNext, noNext // overflow records of the binding and its predecessor; head is noNext
	found := head.Binding == b
	for cur := head.next; !found && cur != noNext; {
		o := t.over.Get(int(cur))
		if o.Binding == b {
			at, found = cur, true
			break
		}
		prevAt, cur = cur, o.next
	}
	if !found {
		return fmt.Errorf("crossprod: remove of absent binding %+v under %v", b, key)
	}
	t.refStages(key, -1)
	t.ctl.view = nil
	if at == noNext {
		mhead := &t.slots.Mut(si).head
		if mhead.refs--; mhead.refs > 0 {
			return nil
		}
		t.bindingCount--
		if mhead.next == noNext {
			t.setCtrl(si, ctrlTomb)
			t.used--
			t.ctl.tombs++
			return nil
		}
		// The next binding in line moves up into the slot.
		t.ctl.freeOver = append(t.ctl.freeOver, mhead.next)
		*mhead = t.over.Get(int(mhead.next))
		return nil
	}
	m := t.over.Mut(int(at))
	if m.refs--; m.refs > 0 {
		return nil
	}
	t.bindingCount--
	if prevAt == noNext {
		t.slots.Mut(si).head.next = m.next
	} else {
		t.over.Mut(int(prevAt)).next = m.next
	}
	t.ctl.freeOver = append(t.ctl.freeOver, at)
	return nil
}

// HasPrefix reports whether any stored key begins with prefix, for
// 2 ≤ len(prefix) < Dims(); other lengths have no stage and report true.
// h is the prefix's hash — the XOR of DimHash over its dimensions, the
// running hash a candidate walk already holds — and is ignored for a
// two-label prefix, whose stage packs the pair into one word.
func (t *Table) HasPrefix(prefix []label.Label, h uint64) bool {
	n := len(prefix) - 2
	if n < 0 || n >= len(t.stages) {
		return true
	}
	return t.stages[n].has(stageWord(prefix, h))
}

// refStages adds delta references to key's prefix in every stage.
func (t *Table) refStages(key []label.Label, delta int32) {
	if len(t.stages) == 0 {
		return
	}
	h := DimHash(0, key[0])
	for i, s := range t.stages {
		h ^= DimHash(i+1, key[i+1])
		s.ref(stageWord(key[:i+2], h), delta)
	}
}

// LookupPacked is Lookup on a table of ≤2 dimensions with the key already
// packed into one word: dimension 0 in the low half, dimension 1 above.
func (t *Table) LookupPacked(pk uint64) (Binding, bool) {
	if !t.packed || t.used == 0 {
		return Binding{}, false
	}
	b, _, ok := t.lookupHK(pk, nil)
	return b, ok
}

// Lookup returns the best (highest-priority, lowest-sequence) binding
// stored under the combination key. The lookup path never allocates and is
// safe for concurrent readers.
func (t *Table) Lookup(key []label.Label) (Binding, bool) {
	b, _, ok := t.LookupSeq(key)
	return b, ok
}

// LookupSeq is Lookup returning the binding's sequence as well, so callers
// comparing bindings from several candidate keys can break priority ties
// by it.
func (t *Table) LookupSeq(key []label.Label) (Binding, uint64, bool) {
	if len(key) != t.dims || t.used == 0 {
		return Binding{}, 0, false
	}
	return t.lookupHK(t.hkOf(key), key)
}

// LookupSeqHash is LookupSeq with the key's hash supplied by the caller —
// the XOR of DimHash over every dimension, typically maintained
// incrementally while enumerating candidate keys. Packed tables (≤2
// dimensions) derive the probe from the key itself and ignore h.
func (t *Table) LookupSeqHash(key []label.Label, h uint64) (Binding, uint64, bool) {
	if len(key) != t.dims || t.used == 0 {
		return Binding{}, 0, false
	}
	if t.packed {
		return t.lookupHK(pack(key), key)
	}
	return t.lookupHK(h, key)
}

// lookupHK probes for the key. The miss path reads the flat control bytes
// only; a page directory is consulted after a control byte matched.
func (t *Table) lookupHK(hk uint64, key []label.Label) (Binding, uint64, bool) {
	bh := t.bucketHash(hk)
	want := ctrlOf(bh)
	ctrl, mask := t.ctrl, t.mask
	i := bh & mask
	for {
		c := ctrl[i&mask]
		if c == ctrlEmpty {
			return Binding{}, 0, false
		}
		if c == want {
			j := i & mask
			sl := &t.slots.Dir[j>>cow.PageShift][j&cow.PageMask]
			if sl.hk == hk && (t.packed || t.keysEqual(int(j), key)) {
				return sl.head.Binding, sl.head.seq, true
			}
		}
		i++
	}
}

// Publish returns an immutable view of the table as it stands, sharing
// every slot, key and overflow page with t; the control bytes are copied
// flat when they changed since the previous view. Later updates to t
// never show in the view, and the same view is returned until the next
// update. Safe for concurrent lookups; mutating a view panics.
func (t *Table) Publish() *Table {
	c := t.ctl
	if c.view == nil {
		if c.ctrlPub == nil {
			c.ctrlPub = slices.Clone(t.ctrl)
		}
		v := &Table{
			dims:         t.dims,
			packed:       t.packed,
			kshift:       t.kshift,
			ctrl:         c.ctrlPub,
			slots:        t.slots.Publish(),
			keys:         t.keys.Publish(),
			over:         t.over.Publish(),
			mask:         t.mask,
			used:         t.used,
			bindingCount: t.bindingCount,
			peakKeys:     t.peakKeys,
		}
		v.stages = make([]*stage, len(t.stages))
		for i, s := range t.stages {
			v.stages[i] = s.publish()
		}
		c.view = v
	}
	return c.view
}

// Keys returns the number of distinct combination keys stored.
func (t *Table) Keys() int { return t.used }

// PeakKeys returns the high-water mark of distinct keys.
func (t *Table) PeakKeys() int { return t.peakKeys }

// RestorePeakKeys sets the distinct-key high-water mark to peak, but
// never below the live key count — how a rejected commit puts back the
// mark it found, its inserts having raised the provisioned combination
// memory before they were undone.
func (t *Table) RestorePeakKeys(peak int) {
	if peak < t.used {
		peak = t.used
	}
	t.peakKeys = peak
	t.ctl.view = nil
}

// Bindings returns the number of distinct live bindings.
func (t *Table) Bindings() int { return t.bindingCount }
