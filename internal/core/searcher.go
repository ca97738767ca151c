// Package core implements the paper's multiple table lookup architecture
// (Fig. 1): each lookup table splits the packet header into its configured
// fields, searches every field with a method-appropriate one-dimensional
// algorithm in parallel (hash LUT for exact matching, partitioned
// multi-bit tries for longest-prefix matching, elementary-interval search
// for range matching), labels each unique field value (Section IV.B), and
// combines the labels in an index-calculation stage that addresses the
// action tables (Section IV.C). Tables chain through Goto-Table
// instructions and the 64-bit metadata register; a miss falls through to
// the table's miss policy ("send to controller" by default, as in the
// paper).
package core

import (
	"fmt"

	"ofmtl/internal/bitops"
	"ofmtl/internal/crossprod"
	"ofmtl/internal/label"
	"ofmtl/internal/lut"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// Wildcard is the label standing for "field unconstrained" in combination
// keys.
const Wildcard = crossprod.Wildcard

// Candidate is one matching unique field value produced by a field search:
// the value's label and a specificity (prefix length for LPM fields, field
// width for exact fields, an inverse-width rank for ranges) used to order
// overlapping candidates.
type Candidate struct {
	Label       label.Label
	Specificity int
}

// FieldSearcher is one single-field search algorithm of the architecture's
// algorithm set.
type FieldSearcher interface {
	// Field identifies the header field this searcher covers.
	Field() openflow.FieldID
	// Insert stores the match constraint (acquiring a label for its value)
	// and returns the value's label. Wildcard constraints return the
	// Wildcard label without storing anything.
	Insert(m openflow.Match) (label.Label, error)
	// LabelOf returns the label a constraint is currently bound to, without
	// changing reference counts.
	LabelOf(m openflow.Match) (label.Label, error)
	// Remove releases one reference to the constraint's value.
	Remove(m openflow.Match) error
	// search appends to each member p of g (g.m) the labels of every
	// stored unique value matching its header, most specific first, to
	// g.ls[p].cands[d]. The group's buffers are the searcher's scratch: it
	// keeps none of its own. A member's non-nil ls.tr asks for
	// consulted-bits accounting: the searcher marks in it every header bit
	// whose value could change that member's candidate set (the megaflow
	// mask-correctness invariant). Implementations must be conservative —
	// over-marking shrinks cached regions, under-marking caches wrong
	// results.
	search(g *lookupGroup, d int)
	// LabelBits returns the width needed to encode this field's label
	// space (sized by its high-water mark).
	LabelBits() int
	// memory states the searcher's modelled memory (see memory.go), all of
	// it in the search bucket.
	memory(a *memAccount)
	// Every searcher's memory is sized by high-water marks.
	highWater
	// Publish returns an immutable view of the searcher as it stands: it
	// serves any number of concurrent searches and the accounting
	// methods while the original keeps taking updates, and shares the
	// original's lookup storage page by page (the pipeline's snapshot
	// mechanism). Updating a view is a bug and panics.
	Publish() FieldSearcher
}

// Interface compliance.
var (
	_ FieldSearcher = (*ExactFieldSearcher)(nil)
	_ FieldSearcher = (*PrefixFieldSearcher)(nil)
	_ FieldSearcher = (*RangeFieldSearcher)(nil)
)

// NewFieldSearcher constructs the method-appropriate searcher for a field,
// following Table II: EM fields get a hash LUT, LPM fields partitioned
// multi-bit tries, RM fields an elementary-interval range table.
func NewFieldSearcher(f openflow.FieldID) (FieldSearcher, error) {
	if !f.Valid() {
		return nil, fmt.Errorf("core: invalid field %d", int(f))
	}
	switch f.Method() {
	case openflow.ExactMatch:
		return NewExactFieldSearcher(f)
	case openflow.LongestPrefixMatch:
		return NewPrefixFieldSearcher(f)
	case openflow.RangeMatch:
		return NewRangeFieldSearcher(f)
	default:
		return nil, fmt.Errorf("core: field %s has unknown matching method", f)
	}
}

// ExactFieldSearcher is the hash-LUT searcher for exact-matching fields.
type ExactFieldSearcher struct {
	field openflow.FieldID
	width int
	table *lut.LUT
}

// NewExactFieldSearcher builds an exact-match searcher for field f (which
// must be at most 64 bits wide).
func NewExactFieldSearcher(f openflow.FieldID) (*ExactFieldSearcher, error) {
	width := f.Bits()
	if width > 64 {
		return nil, fmt.Errorf("core: exact searcher unsupported for %d-bit field %s", width, f)
	}
	l, err := lut.New(width, 0)
	if err != nil {
		return nil, fmt.Errorf("core: exact searcher for %s: %w", f, err)
	}
	return &ExactFieldSearcher{field: f, width: width, table: l}, nil
}

// Field implements FieldSearcher.
func (s *ExactFieldSearcher) Field() openflow.FieldID { return s.field }

func (s *ExactFieldSearcher) key(m openflow.Match) (uint64, error) {
	switch m.Kind {
	case openflow.MatchExact:
		return m.Value.Lo, nil
	case openflow.MatchPrefix:
		if m.PrefixLen == s.width {
			return m.Value.Lo, nil
		}
	}
	return 0, fmt.Errorf("core: field %s requires exact matching, got %s", s.field, m.Kind)
}

// Insert implements FieldSearcher.
func (s *ExactFieldSearcher) Insert(m openflow.Match) (label.Label, error) {
	if m.Kind == openflow.MatchAny {
		return Wildcard, nil
	}
	k, err := s.key(m)
	if err != nil {
		return 0, err
	}
	lab, _, err := s.table.Insert(k)
	if err != nil {
		return 0, fmt.Errorf("core: inserting into %s LUT: %w", s.field, err)
	}
	return lab, nil
}

// LabelOf implements FieldSearcher.
func (s *ExactFieldSearcher) LabelOf(m openflow.Match) (label.Label, error) {
	if m.Kind == openflow.MatchAny {
		return Wildcard, nil
	}
	k, err := s.key(m)
	if err != nil {
		return 0, err
	}
	lab := s.table.Lookup(k)
	if lab == label.NoLabel {
		return 0, fmt.Errorf("core: field %s has no stored value %#x", s.field, k)
	}
	return lab, nil
}

// Remove implements FieldSearcher.
func (s *ExactFieldSearcher) Remove(m openflow.Match) error {
	if m.Kind == openflow.MatchAny {
		return nil
	}
	k, err := s.key(m)
	if err != nil {
		return err
	}
	if _, err := s.table.Remove(k); err != nil {
		return fmt.Errorf("core: removing from %s LUT: %w", s.field, err)
	}
	return nil
}

// search implements FieldSearcher, one member at a time. A populated
// LUT discriminates on every bit of the field (any bit flip can move the
// header onto or off a stored value); an empty LUT returns the same empty
// candidate set for all headers and consults nothing.
func (s *ExactFieldSearcher) search(g *lookupGroup, d int) {
	for _, p := range g.m {
		ls := &g.ls[p]
		if ls.tr != nil && s.table.Len() > 0 {
			ls.tr.orFieldFull(s.field)
		}
		if lab := s.table.Lookup(g.hs[p].Get(s.field).Lo); lab != label.NoLabel {
			ls.cands[d] = append(ls.cands[d], Candidate{Label: lab, Specificity: s.width})
		}
	}
}

// LabelBits implements FieldSearcher.
func (s *ExactFieldSearcher) LabelBits() int { return bitops.Log2Ceil(s.table.Peak()) }

// memory implements FieldSearcher: the LUT's provisioned slots of
// (valid + key + label) bits.
func (s *ExactFieldSearcher) memory(a *memAccount) {
	c := memmodel.LUTCostOf(s.table.Peak(), s.width, s.table.Peak(), s.table.Buckets(), s.table.Ways())
	a.add(searchMem, "lut", c.Buckets*c.Ways, c.BitsPerEntry)
}

// marks implements highWater: the LUT's label peak and bucket count.
func (s *ExactFieldSearcher) marks(dst []int) []int {
	peak, buckets := s.table.AccountingState()
	return append(dst, peak, buckets)
}

// restoreMarks implements highWater.
func (s *ExactFieldSearcher) restoreMarks(src []int) []int {
	s.table.RestoreAccounting(src[0], src[1])
	return src[2:]
}

// Publish implements FieldSearcher.
func (s *ExactFieldSearcher) Publish() FieldSearcher {
	return &ExactFieldSearcher{field: s.field, width: s.width, table: s.table.Publish()}
}

// Entries returns the number of unique values stored.
func (s *ExactFieldSearcher) Entries() int { return s.table.Len() }
