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
// successful probe reads its answer from the slot it matched. The control
// bytes, slots, the key arena and the overflow arena are all paged
// (internal/cow) and shared between the live table and the views Publish
// returns: a publish copies directories, never a whole array, and a
// commit copies the pages it wrote. The control bytes sit in 1 KiB pages
// behind a directory small enough to stay cached (ctrlArray), so a probe
// that misses — most of a candidate walk — reads one directory entry and
// its bytes. Slots are written scattered by hash and so sit in small
// pages (cow.PageSize slots, 2.5 KiB). Stages are published with their
// table the same way. Sequence numbers, the overflow freelist and the
// stages' reference counts are control state: behind one pointer, never
// copied, absent from views.
package crossprod

import (
	"fmt"

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
	// What every probe reads comes first.
	ctrl  ctrlArray // one control byte per slot; ctrl.used counts live keys
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
	// freeOver stacks recycled overflow records; nover counts the records
	// ever allocated.
	freeOver []int32
	nover    int
	// view is the last published view, nil once anything changed.
	view *Table
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

// findSlot returns the index of the slot holding key, whose slot word is
// hk, or -1.
func (t *Table) findSlot(hk uint64, key []label.Label) int {
	if t.ctrl.used == 0 {
		return -1
	}
	bh := t.bucketHash(hk)
	return t.findFrom(bh, ctrlOf(bh), hk, key)
}

// findFrom runs the probe for the key with slot word hk and control byte
// want from probe position i: the one probe loop, behind updates, single
// lookups and the group probe's last pass (LookupGroup).
func (t *Table) findFrom(i uint64, want uint8, hk uint64, key []label.Label) int {
	for at := t.ctrl.match(i, want); at >= 0; at = t.ctrl.match(uint64(at)+1, want) {
		if t.slots.Dir[at>>cow.PageShift][at&cow.PageMask].hk == hk && (t.packed || t.keysEqual(at, key)) {
			return at
		}
	}
	return -1
}

// grow rehashes into a table of at least minSlots buckets, dropping
// tombstones. The new arrays are fresh; views keep the old ones.
func (t *Table) grow(minSlots int) {
	old := t.ctrl.reset(minSlots)
	oldSlots, oldKeys := t.slots, t.keys
	t.slots, t.keys = cow.Array[xslot]{}, cow.Array[label.Label]{}
	t.slots.Grow(t.ctrl.slots())
	for oi := 0; oi < old.slots(); oi++ {
		if old.at(uint64(oi))&ctrlFull == 0 {
			continue
		}
		sl := oldSlots.Get(oi)
		i := t.ctrl.claim(t.bucketHash(sl.hk))
		*t.slots.Mut(i) = sl
		if !t.packed {
			copy(t.keys.MutSpan(i<<t.kshift, t.dims), oldKeys.Span(oi<<t.kshift, t.dims))
		}
	}
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
		if t.ctrl.needsGrow() {
			t.grow((t.ctrl.used + 1) * 4)
		}
		si = t.ctrl.claim(t.bucketHash(hk))
		*t.slots.Mut(si) = xslot{hk: hk, head: binding{Binding: b, seq: seq, refs: 1, next: noNext}}
		if !t.packed {
			copy(t.keys.MutSpan(si<<t.kshift, t.dims), key)
		}
		t.bindingCount++
		t.peakKeys = max(t.peakKeys, t.ctrl.used)
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
			t.ctrl.tomb(si)
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
	return t.stages[n].find(stageWord(prefix, h)) >= 0
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
	if !t.packed {
		return Binding{}, false
	}
	b, _, ok := t.at(t.findSlot(pk, nil))
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
	if len(key) != t.dims {
		return Binding{}, 0, false
	}
	return t.at(t.findSlot(t.hkOf(key), key))
}

// LookupSeqHash is LookupSeq with the key's hash supplied by the caller —
// the XOR of DimHash over every dimension, typically maintained
// incrementally while enumerating candidate keys. Packed tables (≤2
// dimensions) derive the probe from the key itself and ignore h.
func (t *Table) LookupSeqHash(key []label.Label, h uint64) (Binding, uint64, bool) {
	if len(key) != t.dims {
		return Binding{}, 0, false
	}
	return t.at(t.findSlot(t.Word(key, h), key))
}

// at returns the winning binding of slot i and its sequence; ok is false
// for i < 0.
func (t *Table) at(i int) (b Binding, seq uint64, ok bool) {
	if i < 0 {
		return Binding{}, 0, false
	}
	sl := &t.slots.Dir[i>>cow.PageShift][i&cow.PageMask]
	return sl.head.Binding, sl.head.seq, true
}

// Word returns the word a Probe of key carries: the packed key on a table
// of ≤2 dimensions, h — the key's XOR-fold hash (HashKey) — otherwise.
func (t *Table) Word(key []label.Label, h uint64) uint64 {
	if t.packed {
		return pack(key)
	}
	return h
}

// Probe is one key of a group probe (LookupGroup). The caller sets Word
// (Table.Word); LookupGroup sets OK and, when it is set, Binding and Seq.
// A probe may be reused as it is: LookupGroup reads no other field before
// writing it.
type Probe struct {
	Word    uint64
	Binding Binding
	Seq     uint64
	OK      bool
	want    uint8 // the control byte the key's slot holds
	ctrl    uint8 // the control byte at at
	at      int32 // the probe position: home bucket, then first candidate slot; -1 when none
}

// LookupGroup probes every key of ps for its best binding. On a table of
// more than two dimensions, probe i's key is keys[i*Dims():(i+1)*Dims()];
// a packed table's probes carry their keys whole in Word, and keys is
// unused. The probes go stage by stage: every key's home control byte,
// then every key's first candidate slot, then the rare key whose first
// candidate held another key, which probes on (findFrom). No branch of
// the first two stages waits on that stage's loads, so the core keeps one
// load per key in flight, where probes of one key at a time wait for
// each: on a table larger than cache that wait is most of a probe. A miss
// — most of a candidate walk — reads control bytes only.
func (t *Table) LookupGroup(ps []Probe, keys []label.Label) {
	if t.ctrl.used == 0 {
		for i := range ps {
			ps[i].OK = false
		}
		return
	}
	for i := range ps {
		p := &ps[i]
		bh := t.bucketHash(p.Word)
		p.want, p.at = ctrlOf(bh), int32(bh&t.ctrl.mask)
		p.ctrl = t.ctrl.at(uint64(p.at))
	}
	for i := range ps {
		p := &ps[i]
		at := -1
		switch p.ctrl {
		case p.want:
			at = int(p.at)
		case ctrlEmpty:
		default:
			at = t.ctrl.match(uint64(p.at)+1, p.want)
		}
		p.at, p.OK = int32(at), false
		if at >= 0 {
			sl := &t.slots.Dir[at>>cow.PageShift][at&cow.PageMask]
			p.OK, p.Binding, p.Seq = sl.hk == p.Word, sl.head.Binding, sl.head.seq
		}
	}
	for i := range ps {
		p := &ps[i]
		var key []label.Label
		if !t.packed {
			key = keys[i*t.dims : (i+1)*t.dims]
		}
		if p.at < 0 || p.OK && (t.packed || t.keysEqual(int(p.at), key)) {
			continue
		}
		p.Binding, p.Seq, p.OK = t.at(t.findFrom(uint64(p.at)+1, p.want, p.Word, key))
	}
}

// Publish returns an immutable view of the table as it stands, sharing
// every control, slot, key and overflow page with t. Later updates to t
// never show in the view, and the same view is returned until the next
// update. Safe for concurrent lookups; mutating a view panics.
func (t *Table) Publish() *Table {
	c := t.ctl
	if c.view == nil {
		v := &Table{
			dims:         t.dims,
			packed:       t.packed,
			kshift:       t.kshift,
			ctrl:         t.ctrl.publish(),
			slots:        t.slots.Publish(),
			keys:         t.keys.Publish(),
			over:         t.over.Publish(),
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
func (t *Table) Keys() int { return t.ctrl.used }

// PeakKeys returns the high-water mark of distinct keys.
func (t *Table) PeakKeys() int { return t.peakKeys }

// RestorePeakKeys sets the distinct-key high-water mark to peak, but
// never below the live key count — how a rejected commit puts back the
// mark it found, its inserts having raised the provisioned combination
// memory before they were undone.
func (t *Table) RestorePeakKeys(peak int) {
	t.peakKeys = max(peak, t.ctrl.used)
	t.ctl.view = nil
}

// Bindings returns the number of distinct live bindings.
func (t *Table) Bindings() int { return t.bindingCount }
