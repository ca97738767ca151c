package core

import (
	"fmt"

	"ofmtl/internal/bitops"
	"ofmtl/internal/crossprod"
	"ofmtl/internal/label"
	"ofmtl/internal/mbt"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// PrefixFieldSearcher implements longest-prefix matching for wide fields
// the way the paper's architecture does (Section IV): the field is split
// into 16-bit partitions, each partition is searched by its own 3-level
// multi-bit trie (higher/middle/lower for Ethernet, higher/lower for
// IPv4), each unique partition prefix carries a label, and a partition
// combination table maps label tuples back to the unique field values —
// the per-field slice of the index-calculation stage.
//
// Search returns every stored field value matching the header (not only
// the longest), because the table-level crossproduct needs complete match
// sets to resolve cross-field priority correctly (the DCFL property).
type PrefixFieldSearcher struct {
	field  openflow.FieldID
	width  int
	nparts int

	parts  []partition
	fields *label.Allocator[fieldKey]
	combos *crossprod.Table

	// levelNames[i][l] names partition i's level-l trie memory in memory
	// reports ("higher-trie/L1"); immutable, shared with views.
	levelNames [][]string
}

type partition struct {
	alloc *label.Allocator[partKey]
	trie  *mbt.Trie
}

type partKey struct {
	value uint16
	plen  int
}

type fieldKey struct {
	value bitops.U128
	plen  int
}

// NewPrefixFieldSearcher builds an LPM searcher for field f using the
// paper's default 3-level {5,5,6} tries.
func NewPrefixFieldSearcher(f openflow.FieldID) (*PrefixFieldSearcher, error) {
	return NewPrefixFieldSearcherStrides(f, mbt.DefaultStrides16)
}

// NewPrefixFieldSearcherStrides builds an LPM searcher with explicit
// per-partition trie strides (used by the stride ablation benchmark).
func NewPrefixFieldSearcherStrides(f openflow.FieldID, strides []int) (*PrefixFieldSearcher, error) {
	width := f.Bits()
	nparts := bitops.NumPartitions16(width)
	if nparts == 0 {
		return nil, fmt.Errorf("core: field %s has zero width", f)
	}
	s := &PrefixFieldSearcher{
		field:      f,
		width:      width,
		nparts:     nparts,
		parts:      make([]partition, nparts),
		fields:     label.NewAllocator[fieldKey](),
		combos:     crossprod.MustNew(nparts),
		levelNames: make([][]string, nparts),
	}
	for i, name := range partitionNames(nparts) {
		cfg := mbt.Config{Width: 16, Strides: append([]int(nil), strides...)}
		tr, err := mbt.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: trie for %s partition %d: %w", f, i, err)
		}
		s.parts[i] = partition{alloc: label.NewAllocator[partKey](), trie: tr}
		for l := 1; l <= tr.Levels(); l++ {
			s.levelNames[i] = append(s.levelNames[i], fmt.Sprintf("%s-trie/L%d", name, l))
		}
	}
	return s, nil
}

// Field implements FieldSearcher.
func (s *PrefixFieldSearcher) Field() openflow.FieldID { return s.field }

func (s *PrefixFieldSearcher) fieldKeyOf(m openflow.Match) (fieldKey, error) {
	switch m.Kind {
	case openflow.MatchExact:
		return fieldKey{value: m.Value, plen: s.width}, nil
	case openflow.MatchPrefix:
		if m.PrefixLen < 0 || m.PrefixLen > s.width {
			return fieldKey{}, fmt.Errorf("core: prefix length %d out of range for %s", m.PrefixLen, s.field)
		}
		masked := m.Value.And(bitops.Mask128(m.PrefixLen, s.width))
		return fieldKey{value: masked, plen: m.PrefixLen}, nil
	default:
		return fieldKey{}, fmt.Errorf("core: field %s requires prefix matching, got %s", s.field, m.Kind)
	}
}

// Insert implements FieldSearcher.
func (s *PrefixFieldSearcher) Insert(m openflow.Match) (label.Label, error) {
	if m.Kind == openflow.MatchAny {
		return Wildcard, nil
	}
	fk, err := s.fieldKeyOf(m)
	if err != nil {
		return 0, err
	}
	fieldLab, isNew := s.fields.Acquire(fk)
	if !isNew {
		return fieldLab, nil
	}

	split := bitops.SplitPrefix16U128(fk.value, s.width, fk.plen)
	key := make([]label.Label, s.nparts)
	for i := range key {
		key[i] = Wildcard
	}
	for _, p := range split {
		part := &s.parts[p.Index]
		pk := partKey{value: p.Value, plen: p.Len}
		partLab, partNew := part.alloc.Acquire(pk)
		if partNew {
			if err := part.trie.Insert(uint64(p.Value), p.Len, partLab); err != nil {
				// Roll back the acquisitions made so far so a failed insert
				// leaves the searcher unchanged.
				_, _ = part.alloc.Release(pk)
				s.rollbackParts(split, p.Index)
				_, _ = s.fields.Release(fk)
				return 0, fmt.Errorf("core: inserting %s partition %d: %w", s.field, p.Index, err)
			}
		}
		key[p.Index] = partLab
	}
	if err := s.combos.Insert(key, crossprod.Binding{Priority: fk.plen, Payload: uint32(fieldLab)}, 0); err != nil {
		s.rollbackParts(split, s.nparts)
		_, _ = s.fields.Release(fk)
		return 0, fmt.Errorf("core: inserting %s combination: %w", s.field, err)
	}
	return fieldLab, nil
}

// rollbackParts releases partition acquisitions for split entries with
// Index < upto, deleting trie entries whose refcount reached zero.
func (s *PrefixFieldSearcher) rollbackParts(split []bitops.PartPrefix, upto int) {
	for _, p := range split {
		if p.Index >= upto {
			break
		}
		part := &s.parts[p.Index]
		pk := partKey{value: p.Value, plen: p.Len}
		lab := part.alloc.Lookup(pk)
		if removed, err := part.alloc.Release(pk); err == nil && removed {
			_ = part.trie.Delete(uint64(p.Value), p.Len, lab)
		}
	}
}

// LabelOf implements FieldSearcher.
func (s *PrefixFieldSearcher) LabelOf(m openflow.Match) (label.Label, error) {
	if m.Kind == openflow.MatchAny {
		return Wildcard, nil
	}
	fk, err := s.fieldKeyOf(m)
	if err != nil {
		return 0, err
	}
	lab := s.fields.Lookup(fk)
	if lab == label.NoLabel {
		return 0, fmt.Errorf("core: field %s has no stored prefix %v/%d", s.field, fk.value, fk.plen)
	}
	return lab, nil
}

// Remove implements FieldSearcher.
func (s *PrefixFieldSearcher) Remove(m openflow.Match) error {
	if m.Kind == openflow.MatchAny {
		return nil
	}
	fk, err := s.fieldKeyOf(m)
	if err != nil {
		return err
	}
	fieldLab := s.fields.Lookup(fk)
	if fieldLab == label.NoLabel {
		return fmt.Errorf("core: removal of absent prefix %v/%d from %s", fk.value, fk.plen, s.field)
	}
	removed, err := s.fields.Release(fk)
	if err != nil {
		return fmt.Errorf("core: releasing %s field value: %w", s.field, err)
	}
	if !removed {
		return nil
	}

	split := bitops.SplitPrefix16U128(fk.value, s.width, fk.plen)
	key := make([]label.Label, s.nparts)
	for i := range key {
		key[i] = Wildcard
	}
	for _, p := range split {
		part := &s.parts[p.Index]
		pk := partKey{value: p.Value, plen: p.Len}
		partLab := part.alloc.Lookup(pk)
		key[p.Index] = partLab
		partRemoved, err := part.alloc.Release(pk)
		if err != nil {
			return fmt.Errorf("core: releasing %s partition %d: %w", s.field, p.Index, err)
		}
		if partRemoved {
			if err := part.trie.Delete(uint64(p.Value), p.Len, partLab); err != nil {
				return fmt.Errorf("core: deleting %s partition %d trie entry: %w", s.field, p.Index, err)
			}
		}
	}
	if err := s.combos.Remove(key, crossprod.Binding{Priority: fk.plen, Payload: uint32(fieldLab)}); err != nil {
		return fmt.Errorf("core: removing %s combination: %w", s.field, err)
	}
	return nil
}

// search implements FieldSearcher. It walks every partition trie once
// per member — all members together, level by level
// (mbt.Trie.LookupGroup) — then enumerates each member's partition-label
// combinations in descending total prefix length and probes them all in
// one group probe (crossprod.Table.LookupGroup), appending the field label
// of each stored combination. When traced, each partition trie reports
// the key bits its descent indexed on; two headers agreeing on those bits
// per partition produce identical per-partition match sets and therefore
// an identical candidate set (the combination stage consults labels
// only). The per-partition consumed counts are folded into one
// conservative field prefix: the deepest partition reached pins the
// prefix length.
func (s *PrefixFieldSearcher) search(g *lookupGroup, d int) {
	n := len(g.m)
	g.walks = atLeast(g.walks, n*s.nparts)
	for j, p := range g.m {
		ls := &g.ls[p]
		ls.matches, ls.pkey = atLeast(ls.matches, s.nparts), atLeast(ls.pkey, s.nparts)
		// A slot's buffers take the most a lookup can need at once (one
		// match per prefix length), so that no rare long match set grows
		// them once the slot is warm.
		if cap(ls.cands[d]) < s.width+2 { // every prefix length, and Wildcard
			ls.cands[d] = make([]Candidate, 0, s.width+2)
		}
		v := g.hs[p].Get(s.field)
		for i := 0; i < s.nparts; i++ {
			if cap(ls.matches[i]) < 17 { // a 16-bit partition's lengths 0…16
				ls.matches[i] = make([]mbt.MatchedEntry, 0, 17)
			}
			w := &g.walks[i*n+j]
			w.Key, w.Matches = uint64(bitops.PartitionOf(v, s.width, i)), ls.matches[i][:0]
		}
	}
	for i := range s.parts {
		s.parts[i].trie.LookupGroup(g.walks[i*n : (i+1)*n])
	}

	// full16[i] is the label of the exact (plen 16) match in partition i,
	// required for any combination extending past partition i. Only
	// dimension j varies inside the probe loop, so the key hash is
	// maintained incrementally: the fixed dimensions are folded once and
	// each candidate contributes only its own dimension's hash. (Tables of
	// ≤2 partitions take the combination store's packed fast path, where
	// the probe derives from the key itself.)
	g.clearProbes()
	useHash := s.nparts > 2
	for j, p := range g.m {
		ls := &g.ls[p]
		matches := ls.matches
		consulted := 0
		for i := 0; i < s.nparts; i++ {
			w := &g.walks[i*n+j]
			matches[i] = w.Matches
			// Partition i covers field bits below the top 16*i, so bits
			// consumed there extend the overall consulted prefix to
			// 16*i + consumed.
			consulted = max(consulted, 16*i+w.Consumed)
		}
		if ls.tr != nil {
			ls.tr.orField(s.field, consulted)
		}
		key := ls.pkey[:s.nparts]
		for jj := s.nparts - 1; jj >= 0; jj-- {
			// Prerequisite: partitions 0..jj-1 must match exactly.
			ok := true
			for i := 0; i < jj; i++ {
				m := matches[i]
				if len(m) == 0 || m[0].Plen != 16 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var fixed uint64
			for i := 0; i < s.nparts; i++ {
				key[i] = Wildcard
			}
			for i := 0; i < jj; i++ {
				key[i] = matches[i][0].Label
			}
			if useHash {
				for i := 0; i < s.nparts; i++ {
					if i != jj {
						fixed ^= crossprod.DimHash(i, key[i])
					}
				}
			}
			for _, c := range matches[jj] {
				key[jj] = c.Label
				var h uint64
				if useHash {
					h = fixed ^ crossprod.DimHash(jj, c.Label)
				}
				if n > 1 {
					g.queue(s.combos, key, h, p)
				} else if b, _, ok := s.combos.LookupSeqHash(key, h); ok {
					// A group of one has no loads to overlap: it probes
					// as it goes, without the queue's bookkeeping.
					ls.cands[d] = append(ls.cands[d], Candidate{Label: label.Label(b.Payload), Specificity: b.Priority})
				}
			}
		}
	}
	if n == 1 {
		return
	}
	g.probe(s.combos)
	for i := range g.probes {
		if pr := &g.probes[i]; pr.OK {
			ls := &g.ls[g.owner[i]]
			ls.cands[d] = append(ls.cands[d], Candidate{Label: label.Label(pr.Binding.Payload), Specificity: pr.Binding.Priority})
		}
	}
}

// Publish implements FieldSearcher: the partition tries and the
// combination table as views, the label allocators as their counters.
func (s *PrefixFieldSearcher) Publish() FieldSearcher {
	v := &PrefixFieldSearcher{
		field:      s.field,
		width:      s.width,
		nparts:     s.nparts,
		parts:      make([]partition, s.nparts),
		fields:     s.fields.Counters(),
		combos:     s.combos.Publish(),
		levelNames: s.levelNames,
	}
	for i, p := range s.parts {
		v.parts[i] = partition{alloc: p.alloc.Counters(), trie: p.trie.Publish()}
	}
	return v
}

// LabelBits implements FieldSearcher.
func (s *PrefixFieldSearcher) LabelBits() int { return bitops.Log2Ceil(s.fields.Peak()) }

// memory implements FieldSearcher. Each partition trie states one memory
// per level under the default cost model (memmodel.TrieCostModel): its
// capacity slots, each entry's label sized by the partition's label peak
// and its child pointer by the next level's capacity. The partition
// combination table states one memory of label-tuple rows.
func (s *PrefixFieldSearcher) memory(a *memAccount) {
	comboWidth := s.LabelBits() + 6 // payload field label + priority (a prefix length)
	for i := range s.parts {
		part := &s.parts[i]
		peak := part.alloc.Peak()
		comboWidth += bitops.Log2Ceil(peak)
		for lvl := range part.trie.Levels() {
			entry := memmodel.DefaultTrieCostModel.EntryBits(peak, part.trie.CapacitySlots(lvl+1)) // 0 beyond the leaf
			a.add(searchMem, s.levelNames[i][lvl], part.trie.CapacitySlots(lvl), entry)
		}
	}
	if keys := s.combos.PeakKeys(); keys > 0 {
		a.add(searchMem, "combine", keys, comboWidth)
	}
}

// marks implements highWater: the field and partition label peaks and
// the combination table's key peak.
func (s *PrefixFieldSearcher) marks(dst []int) []int {
	dst = append(dst, s.fields.Peak(), s.combos.PeakKeys())
	for i := range s.parts {
		dst = append(dst, s.parts[i].alloc.Peak())
	}
	return dst
}

// restoreMarks implements highWater.
func (s *PrefixFieldSearcher) restoreMarks(src []int) []int {
	s.fields.RestorePeak(src[0])
	s.combos.RestorePeakKeys(src[1])
	for i := range s.parts {
		s.parts[i].alloc.RestorePeak(src[2+i])
	}
	return src[2+s.nparts:]
}

// partitionNames labels partitions the way the paper does: higher/lower
// for 2-partition fields, higher/middle/lower for 3-partition fields.
func partitionNames(n int) []string {
	switch n {
	case 1:
		return []string{"single"}
	case 2:
		return []string{"higher", "lower"}
	case 3:
		return []string{"higher", "middle", "lower"}
	default:
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
		}
		return names
	}
}

// PartitionTrie exposes partition i's trie for the experiment harness
// (node counts and per-level memory are what Figs. 2-4 report).
func (s *PrefixFieldSearcher) PartitionTrie(i int) *mbt.Trie {
	if i < 0 || i >= s.nparts {
		return nil
	}
	return s.parts[i].trie
}

// PartitionLabelPeak returns the high-water unique-value count of
// partition i.
func (s *PrefixFieldSearcher) PartitionLabelPeak(i int) int {
	if i < 0 || i >= s.nparts {
		return 0
	}
	return s.parts[i].alloc.Peak()
}

// Partitions returns the partition count.
func (s *PrefixFieldSearcher) Partitions() int { return s.nparts }

// UniqueValues returns the number of live unique field values.
func (s *PrefixFieldSearcher) UniqueValues() int { return s.fields.Len() }
