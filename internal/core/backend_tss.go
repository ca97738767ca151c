package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ofmtl/internal/bitops"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// tssBackend is tuple space search (Srinivasan et al., the paper's
// reference [12]), the repository's one model of the scheme: the switch
// runs it, the advisor migrates tables onto and off it, and Table I's
// hashing row (internal/baseline) is read off it. It is mutation-capable
// and clone-safe over arbitrary table field sets: rules are grouped by
// their tuple of per-field mask shapes (wildcard / prefix length /
// exact), each tuple holds an exact-match hash table over the masked key
// bytes, and a lookup probes every tuple. Hashing gives O(1) per-tuple
// lookup and O(1) updates — the strength of the hashing category in
// Table I — but the probe count grows with tuple diversity, and arbitrary
// ranges do not hash: rules with non-trivial range constraints fall into
// a spill list scanned linearly (the scheme's "collision issue" axis).
type tssBackend struct {
	cfg    TableConfig
	fields []openflow.FieldID // sorted; the mask tuple's field order

	tuples map[string]*tssTuple
	order  []*tssTuple // probe order (creation order, deterministic)
	spill  []*tssEntry // rules with non-hashable range constraints

	rules int
	// dirPeak is the high-water mark of live tuples: the directory is
	// provisioned for it, though a tuple goes with its last entry.
	dirPeak int
}

// tssShapeWild marks an unconstrained field in a tuple's shape string.
const tssShapeWild = 0xFF

// tssEntryRefBits models the per-hashed-entry result pointer and the
// tssDirEntryBits-included tuple pointer width.
const tssEntryRefBits = 32

// tssEntry is one installed rule: the canonical entry plus its install
// sequence (the priority tie-breaker).
type tssEntry struct {
	seq   uint64
	entry openflow.FlowEntry
}

// tssTuple is one mask tuple: the per-field shape and the hash table of
// masked keys. Entries with the same masked key (differing priority or
// instructions) share a bucket slice.
type tssTuple struct {
	shape   string // one byte per field: prefix length, or tssShapeWild
	keyBits int    // Σ constrained bits — the hashed key width
	entries map[string][]*tssEntry
	n       int // live entries
}

// newTSSBackend builds a tuple-space backend for a table configuration.
func newTSSBackend(cfg TableConfig) *tssBackend {
	return &tssBackend{
		cfg:    cfg,
		fields: sortedFields(cfg),
		tuples: make(map[string]*tssTuple),
	}
}

// Kind implements Backend.
func (b *tssBackend) Kind() string { return BackendTSS }

// shapeOf derives the entry's mask tuple: one byte per configured field
// holding the effective prefix length (exact values count as full-width
// prefixes, degenerate single-value ranges as exact), or tssShapeWild.
// hashable is false when any field carries a non-trivial range — those
// entries go to the spill list.
func (b *tssBackend) shapeOf(e *openflow.FlowEntry, buf []byte) (shape []byte, hashable bool) {
	shape = buf[:0]
	hashable = true
	for _, f := range b.fields {
		m, ok := e.Match(f)
		if !ok || m.IsWildcard() {
			shape = append(shape, tssShapeWild)
			continue
		}
		width := f.Bits()
		switch m.Kind {
		case openflow.MatchExact:
			shape = append(shape, byte(width))
		case openflow.MatchPrefix:
			shape = append(shape, byte(m.PrefixLen))
		case openflow.MatchRange:
			if m.Lo == m.Hi {
				shape = append(shape, byte(width))
			} else {
				shape = append(shape, tssShapeWild)
				hashable = false
			}
		default:
			shape = append(shape, tssShapeWild)
		}
	}
	return shape, hashable
}

// appendMasked appends the 16-byte big-endian form of v masked to plen
// bits of a width-bit field.
func appendMasked(key []byte, v bitops.U128, plen, width int) []byte {
	masked := v.And(bitops.Mask128(plen, width))
	key = binary.BigEndian.AppendUint64(key, masked.Hi)
	return binary.BigEndian.AppendUint64(key, masked.Lo)
}

// entryKey composes the masked key bytes of a hashable entry under its
// shape.
func (b *tssBackend) entryKey(e *openflow.FlowEntry, shape []byte, buf []byte) []byte {
	key := buf[:0]
	for i, f := range b.fields {
		plen := shape[i]
		if plen == tssShapeWild || plen == 0 {
			continue
		}
		m, _ := e.Match(f)
		v := m.Value
		if m.Kind == openflow.MatchRange {
			v = bitops.U128From64(m.Lo)
		}
		key = appendMasked(key, v, int(plen), f.Bits())
	}
	return key
}

// probeKey composes the masked key bytes of a header under a tuple's
// shape.
func (b *tssBackend) probeKey(tp *tssTuple, h *openflow.Header, buf []byte) []byte {
	key := buf[:0]
	for i, f := range b.fields {
		plen := tp.shape[i]
		if plen == tssShapeWild || plen == 0 {
			continue
		}
		key = appendMasked(key, h.Get(f), int(plen), f.Bits())
	}
	return key
}

// keyBitsOf sums the constrained bits of a shape — the modelled hashed
// key width.
func keyBitsOf(shape []byte) int {
	bits := 0
	for _, p := range shape {
		if p != tssShapeWild {
			bits += int(p)
		}
	}
	return bits
}

// ternaryBits is the full value+mask width of one spill row.
func (b *tssBackend) ternaryBits() int {
	bits := 0
	for _, f := range b.fields {
		bits += 2 * f.Bits()
	}
	return bits
}

// dirEntryBits is the modelled width of one tuple-directory row: the
// per-field shape plus a table pointer.
func (b *tssBackend) dirEntryBits() int {
	return 8*len(b.fields) + tssEntryRefBits
}

// Insert implements Backend.
func (b *tssBackend) Insert(e *openflow.FlowEntry, seq uint64) error {
	if err := checkFieldKinds(b.cfg.ID, e); err != nil {
		return err
	}
	ent := &tssEntry{seq: seq, entry: *e}
	var shapeBuf [32]byte
	shape, hashable := b.shapeOf(e, shapeBuf[:0])
	if !hashable {
		b.spill = append(b.spill, ent)
	} else {
		tp, ok := b.tuples[string(shape)]
		if !ok {
			tp = &tssTuple{
				shape:   string(shape),
				keyBits: keyBitsOf(shape),
				entries: make(map[string][]*tssEntry),
			}
			b.tuples[tp.shape] = tp
			b.order = append(b.order, tp)
			b.dirPeak = max(b.dirPeak, len(b.order))
		}
		key := b.entryKey(e, shape, nil)
		tp.entries[string(key)] = append(tp.entries[string(key)], ent)
		tp.n++
	}
	b.rules++
	return nil
}

// Remove implements Backend: uninstall the earliest-installed entry with
// the same canonical identity.
func (b *tssBackend) Remove(e *openflow.FlowEntry) error {
	var shapeBuf [32]byte
	shape, hashable := b.shapeOf(e, shapeBuf[:0])
	if !hashable {
		// The spill list is append-only between removals, so the first
		// identity match is the earliest installed.
		best := -1
		for i, ent := range b.spill {
			if entryIdentityEqual(&ent.entry, e) {
				best = i
				break
			}
		}
		if best < 0 {
			return fmt.Errorf("core: table %d remove: entry not installed", b.cfg.ID)
		}
		b.spill = append(b.spill[:best], b.spill[best+1:]...)
	} else {
		tp, ok := b.tuples[string(shape)]
		if !ok {
			return fmt.Errorf("core: table %d remove: entry not installed", b.cfg.ID)
		}
		key := b.entryKey(e, shape, nil)
		bucket := tp.entries[string(key)]
		// Buckets append on insert and splice on remove, so entries stay
		// in ascending installation order: first match wins.
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
		bucket = append(bucket[:found], bucket[found+1:]...)
		if len(bucket) == 0 {
			delete(tp.entries, string(key))
		} else {
			tp.entries[string(key)] = bucket
		}
		if tp.n--; tp.n == 0 {
			delete(b.tuples, tp.shape)
			b.order = slices.DeleteFunc(b.order, func(o *tssTuple) bool { return o == tp })
		}
	}
	b.rules--
	return nil
}

// better reports whether candidate wins over the current best (which may
// be nil): higher priority first, earlier installation on ties.
func tssBetter(best, cand *tssEntry) bool {
	if best == nil {
		return true
	}
	if cand.entry.Priority != best.entry.Priority {
		return cand.entry.Priority > best.entry.Priority
	}
	return cand.seq < best.seq
}

// Lookup implements Backend, one member at a time.
func (b *tssBackend) Lookup(g *lookupGroup) { g.each(b.lookup) }

// lookup classifies one header: probe every tuple's hash table with the
// header masked to the tuple's shape, then scan the spill list, keeping
// the best (priority, installation order) entry.
func (b *tssBackend) lookup(h *openflow.Header, ls *lookupScratch) (MatchResult, bool) {
	if ls.tr != nil {
		b.trace(ls.tr)
	}
	var best *tssEntry
	for _, tp := range b.order {
		ls.probe = b.probeKey(tp, h, ls.probe)
		if bucket, ok := tp.entries[string(ls.probe)]; ok {
			for _, ent := range bucket {
				if tssBetter(best, ent) {
					best = ent
				}
			}
		}
	}
	for _, ent := range b.spill {
		if tssBetter(best, ent) && ent.entry.MatchesHeader(h) {
			best = ent
		}
	}
	if best == nil {
		return MatchResult{}, false
	}
	return MatchResult{Instructions: best.entry.Instructions, Priority: best.entry.Priority, Ref: best.entry.Ref}, true
}

// trace marks the bits any lookup consults. Every probed tuple consults
// exactly its shape's masked bits (the probe key), whether the bucket hits
// or misses, so each non-empty tuple contributes its shape mask. The spill
// scan may test any entry's full match, so every spill entry's care bits
// are traced unconditionally (conservative: tssBetter can skip a test,
// but identical traced bits imply the identical skip decisions).
func (b *tssBackend) trace(tr *flowMask) {
	for _, tp := range b.order {
		for i, f := range b.fields {
			if plen := tp.shape[i]; plen != tssShapeWild && plen != 0 {
				tr.orField(f, int(plen))
			}
		}
	}
	for _, ent := range b.spill {
		for i := range ent.entry.Matches {
			tr.traceMatch(&ent.entry.Matches[i])
		}
	}
}

// Publish implements Backend. Entries are immutable once installed, so
// the view shares them and copies the containers: one pointer per rule,
// the O(rules) publish the paged backends no longer pay.
func (b *tssBackend) Publish() Backend {
	c := &tssBackend{
		cfg:     b.cfg,
		fields:  b.fields,
		tuples:  make(map[string]*tssTuple, len(b.tuples)),
		order:   make([]*tssTuple, 0, len(b.order)),
		rules:   b.rules,
		dirPeak: b.dirPeak,
	}
	for _, tp := range b.order {
		ct := &tssTuple{
			shape:   tp.shape,
			keyBits: tp.keyBits,
			entries: make(map[string][]*tssEntry, len(tp.entries)),
			n:       tp.n,
		}
		for k, bucket := range tp.entries {
			ct.entries[k] = append([]*tssEntry(nil), bucket...)
		}
		c.tuples[ct.shape] = ct
		c.order = append(c.order, ct)
	}
	if len(b.spill) > 0 {
		c.spill = append([]*tssEntry(nil), b.spill...)
	}
	return c
}

// memory implements Backend: the hashed tuple entries (each its masked
// key and a result pointer) plus the ternary spill rows, the tuple
// directory — provisioned for the peak tuple count — and one action row
// per rule.
func (b *tssBackend) memory(a *memAccount) {
	hashed := 0
	for _, tp := range b.order {
		hashed += tp.n * (tp.keyBits + tssEntryRefBits)
	}
	a.addBits(searchMem, "tss/tuples", hashed+len(b.spill)*b.ternaryBits())
	a.addBits(indexMem, "tss/directory", b.dirPeak*b.dirEntryBits())
	a.addBits(actionMem, "tss/actions", b.rules*memmodel.ActionEntryBits)
}

// LookupProbes reports the probes every lookup in a tss table makes: one
// hash probe per tuple and one step per spill row, the same count for
// every header (Table I's accesses per lookup for the hashing scheme).
// Tables on other backends report 0: their lookups make no fixed number
// of probes.
func (t *LookupTable) LookupProbes() int {
	b, ok := t.backend.(*tssBackend)
	if !ok {
		return 0
	}
	return len(b.order) + len(b.spill)
}

// marks implements highWater: the directory's tuple peak.
func (b *tssBackend) marks(dst []int) []int { return append(dst, b.dirPeak) }

// restoreMarks implements highWater.
func (b *tssBackend) restoreMarks(src []int) []int {
	b.dirPeak = max(src[0], len(b.order))
	return src[1:]
}
