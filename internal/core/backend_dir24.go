package core

import (
	"fmt"

	"ofmtl/internal/cow"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// dir24Backend is the DIR-24-8 dense-array LPM scheme (Gupta, Lin,
// McKeown, "Routing Lookups in Hardware at Memory Access Speeds"),
// promoted to a full mutation-capable, clone-safe backend: a flat array
// of 2^24 slots indexed directly by the top 24 bits of the packet's
// address answers most lookups in one read, and slots covered by any
// prefix longer than /24 point at a 256-entry spill chunk indexed by the
// low 8 bits — two reads worst case, no trie walk, no hashing. It is
// the raw-speed extreme of the paper's memory/lookup tradeoff: the
// array's cost is a large constant (2^24 x 32 bits, ~537 Mbit as
// modelled) that buys O(1) classification regardless of rule count,
// where mbt's walk and tss's tuple probing grow with table structure.
//
// The scheme is shape-restricted: it serves exactly one 32-bit
// longest-prefix-match field (ipv4-src/dst, arp-spa/tpa). Tables with
// any other field set are rejected at construction; BackendSupportsFields
// is the predicate every selection surface consults (the pipeline falls
// back to mbt when a process-wide default names dir24 for a table it
// cannot serve — only an explicit per-table pin is a hard error).
//
// Winner semantics match the other schemes exactly: each slot stores the
// entry that would win a priority/seq tie-break among every installed
// entry whose prefix contains the slot's addresses — NOT the longest
// prefix. (The repo's workloads encode LPM as priority=prefix length,
// so priority order subsumes longest-prefix order when callers want it.)
//
// Publishing shares pages (internal/cow): the 2^24 slot array, the spill
// chunks and the entry arena are paged arrays, a published view copies
// their page directories (32 KiB for the slot array, when it changed)
// and the first write to a page after a publish copies that page
// privately. A Tx commit therefore never copies the 64 MiB array and
// published snapshots stay immutable under churn. The prefix buckets,
// freelists and per-chunk long-prefix counts are control state: only
// updates read them, views do not carry them.
type dir24Backend struct {
	cfg   TableConfig
	field openflow.FieldID

	// tbl is the 2^24-slot direct table; a nil page is all-empty. Slot
	// encoding: 0 = no entry, dir24SpillFlag|spillIndex = spilled slot,
	// else entry ref (arena index + 1). The paged element is a group of
	// slots sized so that a page holds 4096 slots (16 KiB) and the
	// directory 4096 pointers: 32 KiB, small enough to stay in the
	// first-level cache under random lookups (1024 slots per page makes it
	// 128 KiB and a million-route lookup 14 % slower).
	tbl cow.Array[dir24Group]

	// spill holds the 256-entry chunks of slots covered by /25../32
	// prefixes: chunk i is elements [i<<8, (i+1)<<8), so slot-stored spill
	// pointers stay dense as freed indices are recycled. A chunk spans
	// several small pages; a write copies only the page it lands in.
	spill      cow.Array[uint32]
	liveSpills int

	// arena resolves entry refs to installed entries.
	arena cow.Array[*dir24Entry]

	rules int

	ctl *dir24Control // nil in a published view
}

// dir24Control is the state only updates touch.
type dir24Control struct {
	// spillLongs[i] counts the live /25..32 entries covering spill chunk
	// i's slot; when it reaches zero the chunk is freed and the slot
	// reverts to a direct ref. spillFree recycles freed chunk indices.
	spillLongs []int32
	spillFree  []uint32

	// Entry refs are recycled through arenaFree; arenaNext is the next
	// never-used arena index.
	arenaFree []uint32
	arenaNext uint32

	// buckets is the control-plane index keyed by (plen, prefix value):
	// every installed entry, in installation order. Removals recompute
	// displaced winners from it; lookups never touch it.
	buckets map[uint64][]*dir24Entry
}

const (
	// dir24SlotBits is the modelled width of one table slot (an entry
	// ref or a spill pointer) — the classic scheme's 32-bit next-hop
	// word, and exactly what the implementation stores.
	dir24SlotBits = 32
	// dir24Slots is the direct table's depth: one slot per /24.
	dir24Slots = 1 << 24
	// dir24SpillSlots is the second-level fan-out: one entry per low
	// byte of the address.
	dir24SpillShift = 8
	dir24SpillSlots = 1 << dir24SpillShift
	// dir24SpillFlag marks a slot whose value is a spill-chunk index
	// rather than an entry ref.
	dir24SpillFlag = uint32(1) << 31
)

// dir24Group is the direct table's paged element: adjacent slots, as
// many as make a page of 4096.
type dir24Group [1 << dir24GroupShift]uint32

const (
	dir24PageShift  = 12
	dir24GroupShift = dir24PageShift - cow.PageShift
	dir24GroupMask  = 1<<dir24GroupShift - 1
)

// dir24Entry is one installed rule: the canonical entry, its prefix
// interpretation, its installation sequence (the priority tie-breaker)
// and its arena ref (what slots store).
type dir24Entry struct {
	seq   uint64
	ref   uint32
	val   uint32 // prefix value, masked to plen
	plen  int    // 0..32; exact matches are /32, wildcards /0
	entry openflow.FlowEntry
}

// dir24SupportsFields reports whether a table field set fits the
// scheme: exactly one 32-bit longest-prefix-match field.
func dir24SupportsFields(fields []openflow.FieldID) bool {
	return len(fields) == 1 &&
		fields[0].Bits() == 32 &&
		fields[0].Method() == openflow.LongestPrefixMatch
}

// newDIR24Backend builds a DIR-24-8 backend, rejecting table shapes the
// flat array cannot serve.
func newDIR24Backend(cfg TableConfig) (*dir24Backend, error) {
	if !dir24SupportsFields(cfg.Fields) {
		names := make([]string, 0, len(cfg.Fields))
		for _, f := range cfg.Fields {
			names = append(names, f.String())
		}
		return nil, fmt.Errorf("core: table %d: backend dir24 requires exactly one 32-bit longest-prefix-match field (e.g. ipv4-dst), got %v", cfg.ID, names)
	}
	return newDIR24BackendAuto(cfg, cfg.Fields[0]), nil
}

// newDIR24BackendAuto builds a DIR-24-8 backend serving the designated
// LPM field of a multi-field table, skipping the pinned-configuration
// shape check. Only the autotune migrator constructs these, and only
// while the table's rule set constrains nothing but the designated field
// (wideRules == 0) — under that invariant the other configured fields are
// uniformly wildcarded, so classifying on the designated field alone is
// exact. The advisor migrates the table off dir24 (inline, before the
// insert lands) the moment a wider rule arrives.
func newDIR24BackendAuto(cfg TableConfig, field openflow.FieldID) *dir24Backend {
	b := &dir24Backend{
		cfg:   cfg,
		field: field,
		ctl:   &dir24Control{buckets: make(map[uint64][]*dir24Entry)},
	}
	b.tbl.Grow(dir24Slots >> dir24GroupShift)
	return b
}

// Kind implements Backend.
func (b *dir24Backend) Kind() string { return BackendDIR24 }

// dir24Mask returns the 32-bit prefix mask of length plen.
func dir24Mask(plen int) uint32 {
	if plen <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(plen))
}

// dir24BucketKey keys the control-plane index on (plen, masked value).
func dir24BucketKey(val uint32, plen int) uint64 {
	return uint64(plen)<<32 | uint64(val)
}

// prefixOf interprets an entry's single-field match as (value, length).
// Wildcards and absent matches are the /0 default; exact values are /32.
func (b *dir24Backend) prefixOf(e *openflow.FlowEntry) (val uint32, plen int) {
	m, ok := e.Match(b.field)
	if !ok || m.IsWildcard() {
		return 0, 0
	}
	switch m.Kind {
	case openflow.MatchExact:
		return uint32(m.Value.Lo), 32
	case openflow.MatchPrefix:
		return uint32(m.Value.Lo) & dir24Mask(m.PrefixLen), m.PrefixLen
	default:
		// checkFieldKinds rejects other kinds before this runs.
		return 0, 0
	}
}

// dir24Better reports whether candidate wins over the current best
// (which may be nil): higher priority first, earlier installation on
// ties — identical to tssBetter and the mbt crossproduct ordering.
func dir24Better(best, cand *dir24Entry) bool {
	if best == nil {
		return true
	}
	if cand.entry.Priority != best.entry.Priority {
		return cand.entry.Priority > best.entry.Priority
	}
	return cand.seq < best.seq
}

// --- paged-array accessors -------------------------------------------

// slotGet reads one direct-table slot; a nil page reads empty.
func (b *dir24Backend) slotGet(idx uint32) uint32 {
	if pg := b.tbl.Dir[idx>>dir24PageShift]; pg != nil {
		return pg[idx>>dir24GroupShift&cow.PageMask][idx&dir24GroupMask]
	}
	return 0
}

// slotSet writes one direct-table slot.
func (b *dir24Backend) slotSet(idx, v uint32) {
	b.tbl.Mut(int(idx >> dir24GroupShift))[idx&dir24GroupMask] = v
}

// spillGet reads address a (the low byte) of spill chunk si.
func (b *dir24Backend) spillGet(si, a uint32) uint32 {
	return b.spill.Get(int(si<<dir24SpillShift | a))
}

// spillSet writes address a of spill chunk si.
func (b *dir24Backend) spillSet(si, a, v uint32) {
	*b.spill.Mut(int(si<<dir24SpillShift | a)) = v
}

// allocSpill claims a spill chunk, recycling freed indices; the caller
// writes every address of it.
func (b *dir24Backend) allocSpill() uint32 {
	c := b.ctl
	var si uint32
	if n := len(c.spillFree); n > 0 {
		si = c.spillFree[n-1]
		c.spillFree = c.spillFree[:n-1]
	} else {
		si = uint32(len(c.spillLongs))
		c.spillLongs = append(c.spillLongs, 0)
	}
	return si
}

// entryOf resolves a slot ref (0 = none).
func (b *dir24Backend) entryOf(ref uint32) *dir24Entry {
	if ref == 0 {
		return nil
	}
	return b.arena.Get(int(ref - 1))
}

// dir24Ref maps an entry (possibly nil) to its slot encoding.
func dir24Ref(ent *dir24Entry) uint32 {
	if ent == nil {
		return 0
	}
	return ent.ref
}

// allocEntry places ent in the arena and assigns its ref.
func (b *dir24Backend) allocEntry(ent *dir24Entry) {
	c := b.ctl
	var idx uint32
	if n := len(c.arenaFree); n > 0 {
		idx = c.arenaFree[n-1]
		c.arenaFree = c.arenaFree[:n-1]
	} else {
		idx = c.arenaNext
		c.arenaNext++
	}
	*b.arena.Mut(int(idx)) = ent
	ent.ref = idx + 1
}

// freeEntry recycles a ref after every slot referencing it was rewritten.
func (b *dir24Backend) freeEntry(ref uint32) {
	*b.arena.Mut(int(ref - 1)) = nil
	b.ctl.arenaFree = append(b.ctl.arenaFree, ref-1)
}

// --- winner recomputation --------------------------------------------

// bestFor returns the winning entry for one full 32-bit address: the
// priority/seq best across the buckets of every prefix length covering
// it (33 map probes, control-plane only).
func (b *dir24Backend) bestFor(addr uint32) *dir24Entry {
	var best *dir24Entry
	for plen := 0; plen <= 32; plen++ {
		for _, ent := range b.ctl.buckets[dir24BucketKey(addr&dir24Mask(plen), plen)] {
			if dir24Better(best, ent) {
				best = ent
			}
		}
	}
	return best
}

// bestShort returns the winning /0../24 entry for a direct slot. Valid
// only while no long entry covers the slot (slot not spilled): every
// short entry covering one address of the slot covers all 256.
func (b *dir24Backend) bestShort(idx uint32) *dir24Entry {
	addr := idx << 8
	var best *dir24Entry
	for plen := 0; plen <= 24; plen++ {
		for _, ent := range b.ctl.buckets[dir24BucketKey(addr&dir24Mask(plen), plen)] {
			if dir24Better(best, ent) {
				best = ent
			}
		}
	}
	return best
}

// paint re-applies one installed entry to the direct slots [lo, hi] —
// the removal repaint primitive, mirroring Insert's painting. Short
// entries contend for every covered slot in the range (descending into
// spill chunks); long entries contend for their spill addresses when
// their slot lies in the range.
func (b *dir24Backend) paint(o *dir24Entry, lo, hi uint32) {
	if o.plen <= 24 {
		olo := o.val >> 8
		ohi := olo + (uint32(1)<<(24-uint(o.plen)) - 1)
		if olo < lo {
			olo = lo
		}
		if ohi > hi {
			ohi = hi
		}
		for idx := olo; idx <= ohi; idx++ {
			if v := b.slotGet(idx); v&dir24SpillFlag != 0 {
				b.paintSpill(o, v&^dir24SpillFlag, 0, dir24SpillSlots-1)
			} else if dir24Better(b.entryOf(v), o) {
				b.slotSet(idx, o.ref)
			}
		}
		return
	}
	idx := o.val >> 8
	if idx < lo || idx > hi {
		return
	}
	// A live long entry's slot is spilled by invariant.
	aLo := o.val & 0xFF
	b.paintSpill(o, b.slotGet(idx)&^dir24SpillFlag, aLo, aLo+(uint32(1)<<(32-uint(o.plen))-1))
}

// paintSpill makes o the winner of the addresses [aLo, aHi] of spill
// chunk si it beats. Only the pages it wins on are written.
func (b *dir24Backend) paintSpill(o *dir24Entry, si, aLo, aHi uint32) {
	for a := aLo; a <= aHi; a++ {
		if dir24Better(b.entryOf(b.spillGet(si, a)), o) {
			b.spillSet(si, a, o.ref)
		}
	}
}

// ensureSpill converts a direct slot to a spilled one (seeding every
// sub-entry with the current direct winner) or finds its existing chunk,
// and returns the chunk's index.
func (b *dir24Backend) ensureSpill(idx uint32) uint32 {
	v := b.slotGet(idx)
	if v&dir24SpillFlag != 0 {
		return v &^ dir24SpillFlag
	}
	si := b.allocSpill()
	for a := uint32(0); a < dir24SpillSlots; a++ {
		b.spillSet(si, a, v)
	}
	b.slotSet(idx, dir24SpillFlag|si)
	b.liveSpills++
	return si
}

// --- Backend mutation ------------------------------------------------

// Insert implements Backend. A /0../24 prefix updates the winner of
// every covered direct slot (descending into existing spill chunks); a
// /25../32 prefix spills its one slot and updates the covered sub-range.
func (b *dir24Backend) Insert(e *openflow.FlowEntry, seq uint64) error {
	if err := checkFieldKinds(b.cfg.ID, e); err != nil {
		return err
	}
	val, plen := b.prefixOf(e)
	ent := &dir24Entry{seq: seq, val: val, plen: plen, entry: *e}
	b.allocEntry(ent)
	key := dir24BucketKey(val, plen)
	b.ctl.buckets[key] = append(b.ctl.buckets[key], ent)

	if plen <= 24 {
		lo := val >> 8
		hi := lo + (uint32(1)<<(24-uint(plen)) - 1)
		for idx := lo; idx <= hi; idx++ {
			if v := b.slotGet(idx); v&dir24SpillFlag != 0 {
				b.paintSpill(ent, v&^dir24SpillFlag, 0, dir24SpillSlots-1)
			} else if dir24Better(b.entryOf(v), ent) {
				b.slotSet(idx, ent.ref)
			}
		}
	} else {
		si := b.ensureSpill(val >> 8)
		aLo := val & 0xFF
		b.paintSpill(ent, si, aLo, aLo+(uint32(1)<<(32-uint(plen))-1))
		b.ctl.spillLongs[si]++
	}

	b.rules++
	return nil
}

// Remove implements Backend: uninstall the earliest-installed entry
// with the same canonical identity, recomputing the winner of every
// address the removed entry held.
func (b *dir24Backend) Remove(e *openflow.FlowEntry) error {
	val, plen := b.prefixOf(e)
	key := dir24BucketKey(val, plen)
	bucket := b.ctl.buckets[key]
	// Buckets append on insert, so the first identity match is the
	// earliest installed.
	found := -1
	for i, ent := range bucket {
		if entryIdentityEqual(&ent.entry, e) {
			found = i
			break
		}
	}
	if found < 0 {
		return fmt.Errorf("core: table %d remove: entry not installed", b.cfg.ID)
	}
	ent := bucket[found]
	bucket = append(bucket[:found], bucket[found+1:]...)
	if len(bucket) == 0 {
		delete(b.ctl.buckets, key)
	} else {
		b.ctl.buckets[key] = bucket
	}

	if plen <= 24 {
		// Clear-then-repaint: first erase the removed ref from every slot
		// (and spill address) it won, then re-paint every surviving entry
		// intersecting the range, exactly as Insert painted it. Winner
		// selection is a max under the (priority, seq) total order, so
		// pairwise better() in any paint order converges — and the cost
		// is the covered range plus the overlaps, not a per-slot scan of
		// every prefix length.
		lo := val >> 8
		hi := lo + (uint32(1)<<(24-uint(plen)) - 1)
		for idx := lo; idx <= hi; idx++ {
			v := b.slotGet(idx)
			if v&dir24SpillFlag != 0 {
				si := v &^ dir24SpillFlag
				for a := uint32(0); a < dir24SpillSlots; a++ {
					if b.spillGet(si, a) == ent.ref {
						b.spillSet(si, a, 0)
					}
				}
			} else if v == ent.ref {
				b.slotSet(idx, 0)
			}
		}
		for _, bucket := range b.ctl.buckets {
			for _, o := range bucket {
				b.paint(o, lo, hi)
			}
		}
	} else {
		idx := val >> 8
		si := b.slotGet(idx) &^ dir24SpillFlag
		aLo := val & 0xFF
		aHi := aLo + (uint32(1)<<(32-uint(plen)) - 1)
		for a := aLo; a <= aHi; a++ {
			if b.spillGet(si, a) == ent.ref {
				b.spillSet(si, a, dir24Ref(b.bestFor(idx<<8|a)))
			}
		}
		b.ctl.spillLongs[si]--
		if b.ctl.spillLongs[si] == 0 {
			// Last long prefix gone: the slot collapses back to a direct
			// ref and the chunk is recycled, so the accounting (and the
			// drift test's from-scratch replay) sees the spill disappear.
			b.slotSet(idx, dir24Ref(b.bestShort(idx)))
			b.ctl.spillFree = append(b.ctl.spillFree, si)
			b.liveSpills--
		}
	}

	b.freeEntry(ent.ref)
	b.rules--
	return nil
}

// --- Backend lookup --------------------------------------------------

// Lookup implements Backend, one member at a time.
func (b *dir24Backend) Lookup(g *lookupGroup) { g.each(b.lookup) }

// lookup classifies one header: one direct-array read, plus one spill read
// for slots covered by >/24 prefixes. O(1) and allocation-free. The
// direct read consults exactly the top 24 bits of the field — two headers
// agreeing on them land on the same slot and, when it is direct, the same
// outcome. A spilled slot additionally consults the low byte, so the full
// 32 bits are marked.
func (b *dir24Backend) lookup(h *openflow.Header, ls *lookupScratch) (MatchResult, bool) {
	tr := ls.tr
	if tr != nil {
		tr.orField(b.field, 24)
	}
	addr := uint32(h.Get(b.field).Lo)
	idx := addr >> 8
	ref := b.slotGet(idx)
	if ref&dir24SpillFlag != 0 {
		if tr != nil {
			tr.orFieldFull(b.field)
		}
		i := (ref&^dir24SpillFlag)<<dir24SpillShift | addr&0xFF
		ref = b.spill.Dir[i>>cow.PageShift][i&cow.PageMask]
	}
	if ref == 0 {
		return MatchResult{}, false
	}
	ent := b.arena.Dir[(ref-1)>>cow.PageShift][(ref-1)&cow.PageMask]
	return MatchResult{Instructions: ent.entry.Instructions, Priority: ent.entry.Priority, Ref: ent.entry.Ref}, true
}

// --- Backend snapshotting and accounting ------------------------------

// Publish implements Backend: the three paged arrays as views sharing
// every page (a write on the live side copies its page first), the
// accounting by value. Entries are immutable once installed and shared
// outright.
func (b *dir24Backend) Publish() Backend {
	return &dir24Backend{
		cfg:        b.cfg,
		field:      b.field,
		tbl:        b.tbl.Publish(),
		spill:      b.spill.Publish(),
		liveSpills: b.liveSpills,
		arena:      b.arena.Publish(),
		rules:      b.rules,
	}
}

// memory implements Backend. The direct array is billed at its full
// provisioned size — that constant is the scheme's defining cost — and
// live spill chunks land in the index bucket (the second-level
// directory), one modelled action row per rule. Nothing here is a
// high-water mark: spill chunks are freed the moment their last long
// prefix goes.
func (b *dir24Backend) memory(a *memAccount) {
	a.add(searchMem, "dir24/tbl24", dir24Slots, dir24SlotBits)
	a.addBits(indexMem, "dir24/tbllong", b.liveSpills*dir24SpillSlots*dir24SlotBits)
	a.addBits(actionMem, "dir24/actions", b.rules*memmodel.ActionEntryBits)
}

// Spills returns the live spill-chunk count (tests and tooling).
func (b *dir24Backend) Spills() int { return b.liveSpills }
