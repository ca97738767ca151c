package core

import (
	"fmt"
	"slices"

	"ofmtl/internal/bitops"
	"ofmtl/internal/label"
	"ofmtl/internal/openflow"
	"ofmtl/internal/rangelookup"
)

// RangeFieldSearcher implements range matching for port fields: unique
// ranges are labelled and projected onto elementary intervals
// (rangelookup), so a search is a binary search returning every containing
// range, narrowest first — the paper's RM semantics extended with the
// complete match set the crossproduct stage needs. A range change updates
// only the intervals it spans.
type RangeFieldSearcher struct {
	field openflow.FieldID
	width int
	table rangelookup.Table
	alloc *label.Allocator[rangeKey]
	// specs caches each live label's specificity (an inverse-width rank),
	// indexed by label, so the per-packet Search path reads an array
	// instead of resolving the label back to its range through a map.
	// Entries for freed labels go stale harmlessly: the allocator recycles
	// a label only when a new range claims it, which rewrites the entry.
	// A view may still hold the label's old range, so the write goes to a
	// copy when the array has been published (specsShared).
	specs       []int
	specsShared bool
}

type rangeKey struct {
	lo, hi uint64
}

// NewRangeFieldSearcher builds a range searcher for field f (at most 64
// bits wide).
func NewRangeFieldSearcher(f openflow.FieldID) (*RangeFieldSearcher, error) {
	width := f.Bits()
	if width > 64 {
		return nil, fmt.Errorf("core: range searcher unsupported for %d-bit field %s", width, f)
	}
	return &RangeFieldSearcher{
		field: f,
		width: width,
		alloc: label.NewAllocator[rangeKey](),
	}, nil
}

// Field implements FieldSearcher.
func (s *RangeFieldSearcher) Field() openflow.FieldID { return s.field }

func (s *RangeFieldSearcher) keyOf(m openflow.Match) (rangeKey, error) {
	switch m.Kind {
	case openflow.MatchRange:
		if m.Lo > m.Hi {
			return rangeKey{}, fmt.Errorf("core: inverted range [%d, %d] on %s", m.Lo, m.Hi, s.field)
		}
		return rangeKey{lo: m.Lo, hi: m.Hi}, nil
	case openflow.MatchExact:
		return rangeKey{lo: m.Value.Lo, hi: m.Value.Lo}, nil
	default:
		return rangeKey{}, fmt.Errorf("core: field %s requires range matching, got %s", s.field, m.Kind)
	}
}

// Insert implements FieldSearcher.
func (s *RangeFieldSearcher) Insert(m openflow.Match) (label.Label, error) {
	if m.Kind == openflow.MatchAny {
		return Wildcard, nil
	}
	k, err := s.keyOf(m)
	if err != nil {
		return 0, err
	}
	lab, isNew := s.alloc.Acquire(k)
	if isNew {
		if err := s.table.Insert(k.lo, k.hi, lab); err != nil {
			_, _ = s.alloc.Release(k)
			return 0, fmt.Errorf("core: inserting range into %s: %w", s.field, err)
		}
		if s.specsShared {
			s.specs, s.specsShared = slices.Clone(s.specs), false
		}
		for int(lab) >= len(s.specs) {
			s.specs = append(s.specs, 0)
		}
		spec := 0
		if size := k.hi - k.lo + 1; size > 0 {
			spec = s.width - bitops.Log2Ceil(int(size))
		}
		s.specs[lab] = spec
	}
	return lab, nil
}

// LabelOf implements FieldSearcher.
func (s *RangeFieldSearcher) LabelOf(m openflow.Match) (label.Label, error) {
	if m.Kind == openflow.MatchAny {
		return Wildcard, nil
	}
	k, err := s.keyOf(m)
	if err != nil {
		return 0, err
	}
	lab := s.alloc.Lookup(k)
	if lab == label.NoLabel {
		return 0, fmt.Errorf("core: field %s has no stored range [%d, %d]", s.field, k.lo, k.hi)
	}
	return lab, nil
}

// Remove implements FieldSearcher.
func (s *RangeFieldSearcher) Remove(m openflow.Match) error {
	if m.Kind == openflow.MatchAny {
		return nil
	}
	k, err := s.keyOf(m)
	if err != nil {
		return err
	}
	lab := s.alloc.Lookup(k)
	if lab == label.NoLabel {
		return fmt.Errorf("core: removal of absent range [%d, %d] from %s", k.lo, k.hi, s.field)
	}
	removed, err := s.alloc.Release(k)
	if err != nil {
		return fmt.Errorf("core: releasing %s range: %w", s.field, err)
	}
	if removed {
		if err := s.table.Remove(k.lo, k.hi, lab); err != nil {
			return fmt.Errorf("core: deleting range from %s: %w", s.field, err)
		}
	}
	return nil
}

// search implements FieldSearcher, one member at a time: the containing
// interval's labels are a slice of the table's label arena, read in place.
// Elementary-interval search compares the value against stored
// boundaries, so with any interval present every field bit can move the
// value across a boundary; the whole field is consulted. An empty table
// consults nothing.
func (s *RangeFieldSearcher) search(g *lookupGroup, d int) {
	for _, p := range g.m {
		ls := &g.ls[p]
		if ls.tr != nil && s.table.Segments() > 0 {
			ls.tr.orFieldFull(s.field)
		}
		for _, lab := range s.table.LookupAll(g.hs[p].Get(s.field).Lo) {
			ls.cands[d] = append(ls.cands[d], Candidate{Label: lab, Specificity: s.specs[lab]})
		}
	}
}

// LabelBits implements FieldSearcher.
func (s *RangeFieldSearcher) LabelBits() int { return bitops.Log2Ceil(s.alloc.Peak()) }

// memory implements FieldSearcher: the range stage is provisioned as a
// boundary memory of elementary intervals, each row holding a boundary
// value plus the narrowest label.
func (s *RangeFieldSearcher) memory(a *memAccount) {
	if segs := s.table.Segments(); segs > 0 {
		a.add(searchMem, "ranges", segs, s.width+s.LabelBits())
	}
}

// marks implements highWater: the label peak.
func (s *RangeFieldSearcher) marks(dst []int) []int { return append(dst, s.alloc.Peak()) }

// restoreMarks implements highWater.
func (s *RangeFieldSearcher) restoreMarks(src []int) []int {
	s.alloc.RestorePeak(src[0])
	return src[1:]
}

// Publish implements FieldSearcher: the elementary intervals and the
// specificity array are shared (the live searcher copies each before its
// first write after a publish), the label allocator is reduced to its
// counters.
func (s *RangeFieldSearcher) Publish() FieldSearcher {
	s.specsShared = true
	return &RangeFieldSearcher{
		field: s.field,
		width: s.width,
		table: *s.table.Publish(),
		alloc: s.alloc.Counters(),
		specs: s.specs,
	}
}

// Entries returns the number of unique ranges stored.
func (s *RangeFieldSearcher) Entries() int { return s.alloc.Len() }
