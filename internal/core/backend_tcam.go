package core

import (
	"fmt"
	"sort"

	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// tcamBackend is the repository's one model of a TCAM: the switch runs
// it, the advisor migrates tables onto and off it, and Table I's hardware
// row (internal/baseline) is read off it. It is a mutation-capable,
// clone-safe, priority-ordered array of ternary rows searched linearly in
// software (hardware compares every row in parallel — one access, the
// paper's "parallel search" category). Memory is accounted the way a
// TCAM pays for it: every row stores a value bit and a mask bit per
// header bit (2× the tuple width), and range constraints expand into
// prefix sets — the rule ternary-conversion blow-up the paper cites.
type tcamBackend struct {
	cfg     TableConfig
	fields  []openflow.FieldID
	entries []*tcamEntry // priority descending, install sequence on ties

	// rows is the expanded ternary row count (Σ per-entry range
	// expansions) behind the incremental accounting.
	rows int
}

// tcamEntry is one installed rule with its precomputed range expansion.
type tcamEntry struct {
	seq      uint64
	expanded int
	entry    openflow.FlowEntry
}

// newTCAMBackend builds a linear-TCAM backend for a table configuration.
func newTCAMBackend(cfg TableConfig) *tcamBackend {
	return &tcamBackend{cfg: cfg, fields: sortedFields(cfg)}
}

// Kind implements Backend.
func (b *tcamBackend) Kind() string { return BackendLinearTCAM }

// ternaryBits is the value+mask width of one ternary row.
func (b *tcamBackend) ternaryBits() int {
	bits := 0
	for _, f := range b.fields {
		bits += 2 * f.Bits()
	}
	return bits
}

// rangePrefixCount returns the number of prefixes in the minimal prefix
// cover of [lo, hi] — the ternary rows one range constraint expands into.
func rangePrefixCount(lo, hi uint64) int {
	if lo == 0 && hi == ^uint64(0) {
		return 1 // the whole span, a block no uint64 size holds
	}
	count := 0
	for {
		// Largest aligned power-of-two block starting at lo that stays
		// within [lo, hi].
		size := lo & -lo // lowest set bit; 0 means any alignment
		if size == 0 {
			size = 1 << 63
		}
		for size-1 > hi-lo {
			size >>= 1
		}
		count++
		if hi-lo < size { // block reaches hi exactly
			return count
		}
		lo += size
		if lo == 0 { // wrapped: covered the full 64-bit span
			return count
		}
	}
}

// expansionOf multiplies the per-field range expansions of an entry.
func expansionOf(e *openflow.FlowEntry) int {
	rows := 1
	for _, m := range e.Matches {
		if m.Kind == openflow.MatchRange && m.Lo != m.Hi {
			rows *= rangePrefixCount(m.Lo, m.Hi)
		}
	}
	return rows
}

// Insert implements Backend: place the entry at its priority-ordered
// position — the shift an ordered TCAM update pays for.
func (b *tcamBackend) Insert(e *openflow.FlowEntry, seq uint64) error {
	if err := checkFieldKinds(b.cfg.ID, e); err != nil {
		return err
	}
	ent := &tcamEntry{seq: seq, expanded: expansionOf(e), entry: *e}
	// First index the entry outranks: lower priority, or equal priority
	// and a later sequence.
	i := sort.Search(len(b.entries), func(i int) bool {
		o := b.entries[i]
		return o.entry.Priority < e.Priority || o.entry.Priority == e.Priority && o.seq > seq
	})
	b.entries = append(b.entries, nil)
	copy(b.entries[i+1:], b.entries[i:])
	b.entries[i] = ent
	b.rows += ent.expanded
	return nil
}

// Remove implements Backend: uninstall the earliest-installed entry with
// the same canonical identity.
func (b *tcamBackend) Remove(e *openflow.FlowEntry) error {
	// Identities are unique in a table: the first match is the entry.
	found := -1
	for i, ent := range b.entries {
		if entryIdentityEqual(&ent.entry, e) {
			found = i
			break
		}
	}
	if found < 0 {
		return fmt.Errorf("core: table %d remove: entry not installed", b.cfg.ID)
	}
	b.rows -= b.entries[found].expanded
	b.entries = append(b.entries[:found], b.entries[found+1:]...)
	return nil
}

// Lookup implements Backend, one member at a time.
func (b *tcamBackend) Lookup(g *lookupGroup) { g.each(b.lookup) }

// lookup classifies one header: the rows are priority-ordered, so the first
// matching row is the winner (the TCAM priority encoder). A linear TCAM
// scan consults the care bits of every row up to and including the
// winning row: a packet agreeing with h on all those bits misses the same
// higher-priority rows and hits the same winner (or, on a total miss,
// misses every row).
func (b *tcamBackend) lookup(h *openflow.Header, ls *lookupScratch) (MatchResult, bool) {
	tr := ls.tr
	for _, ent := range b.entries {
		if tr != nil {
			for i := range ent.entry.Matches {
				tr.traceMatch(&ent.entry.Matches[i])
			}
		}
		if ent.entry.MatchesHeader(h) {
			return MatchResult{Instructions: ent.entry.Instructions, Priority: ent.entry.Priority, Ref: ent.entry.Ref}, true
		}
	}
	return MatchResult{}, false
}

// Publish implements Backend. Entries are immutable once installed, so
// the view shares them and copies only the ordered array: one pointer per
// rule, the O(rules) publish the paged backends no longer pay.
func (b *tcamBackend) Publish() Backend {
	c := &tcamBackend{
		cfg:    b.cfg,
		fields: b.fields,
		rows:   b.rows,
	}
	if len(b.entries) > 0 {
		c.entries = append([]*tcamEntry(nil), b.entries...)
	}
	return c
}

// memory implements Backend: the ternary array (expanded rows × 2 bits
// per header bit) plus one modelled action row per installed rule. Both
// are live counts: nothing here is a high-water mark.
func (b *tcamBackend) memory(a *memAccount) {
	if b.rows > 0 {
		a.add(searchMem, "tcam/array", b.rows, b.ternaryBits())
	}
	a.addBits(actionMem, "tcam/actions", len(b.entries)*memmodel.ActionEntryBits)
}
