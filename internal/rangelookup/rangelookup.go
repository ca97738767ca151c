// Package rangelookup implements range matching (RM) for port fields.
// The paper's RM semantics (Section III.A) select the narrowest range that
// contains the search key. The implementation projects the stored ranges
// onto elementary intervals — the classic technique used by decomposition
// classifiers — so a lookup is a binary search over interval boundaries,
// and the memory model can count intervals the way synthesised hardware
// would provision them.
package rangelookup

import (
	"fmt"
	"math/bits"
	"slices"

	"ofmtl/internal/label"
)

// rangeEntry is one stored range. Entries live in slots indexed by id;
// a removed entry's slot is reused by a later insert.
type rangeEntry struct {
	lo, hi uint64
	lab    label.Label
	live   bool
	seq    uint64 // insertion order, breaks narrowness ties deterministically
}

// before reports whether e resolves ahead of o: narrower first, the
// earlier inserted on equal widths.
func (e *rangeEntry) before(o *rangeEntry) bool {
	if we, wo := e.hi-e.lo, o.hi-o.lo; we != wo {
		return we < wo
	}
	return e.seq < o.seq
}

// Table is a range-matching table over keys of up to 64 bits. The zero
// value is an empty, usable table.
//
// The elementary intervals are three flat arrays. starts[i] is the first
// key of interval i; starts[0] is 0, so the intervals partition the whole
// key space. labs[offs[i]:offs[i+1]] holds the labels of every range
// covering interval i, narrowest first (insertion order breaking ties),
// and adjacent intervals never hold equal lists. ids, parallel to labs,
// names the entry behind each label; only updates read it.
//
// An update rewrites only the intervals its range spans, in place. A
// published view shares starts, offs and labs, so the first update after
// a Publish clones them (shared), and a view never sees a write.
type Table struct {
	starts []uint64
	offs   []uint32
	labs   []label.Label
	ids    []uint32

	entries []rangeEntry
	free    []uint32
	live    int
	nextSeq uint64
	// dupes is the number of live entries less the number of distinct
	// labels they carry. While it is zero, two lists hold equal labels
	// only if they hold the same entries, which the local update relies
	// on; a table where ranges share a label (never one a searcher
	// builds: its labels name ranges) is re-projected from scratch.
	dupes  int
	shared bool
}

// Insert adds the inclusive range [lo, hi] with the given label. Duplicate
// ranges may coexist (they carry different labels under the label method).
func (t *Table) Insert(lo, hi uint64, lab label.Label) error {
	if lo > hi {
		return fmt.Errorf("rangelookup: inverted range [%d, %d]", lo, hi)
	}
	if t.carried(lab, noEntry) {
		t.dupes++
	}
	id := t.newEntry(rangeEntry{lo: lo, hi: hi, lab: lab, live: true, seq: t.nextSeq})
	t.nextSeq++
	t.own()
	if t.dupes > 0 {
		t.reproject()
		return nil
	}
	// The new entry is in every list of the span and in neither list
	// beside it, so nothing coalesces.
	a, b := t.span(lo, hi)
	t.addSpan(a, b, id)
	return nil
}

// Remove deletes one occurrence of the range [lo, hi] bound to lab: the
// earliest inserted, when there are several.
func (t *Table) Remove(lo, hi uint64, lab label.Label) error {
	id := noEntry
	for i := range t.entries {
		e := &t.entries[i]
		if e.live && e.lo == lo && e.hi == hi && e.lab == lab && (id == noEntry || e.seq < t.entries[id].seq) {
			id = uint32(i)
		}
	}
	if id == noEntry {
		return fmt.Errorf("rangelookup: remove of absent range [%d, %d] label %d", lo, hi, lab)
	}
	// Shared labels leave the entry ids behind coalesced lists ambiguous,
	// so a table that had any is re-projected even if this removal ends
	// the sharing.
	dupBefore := t.dupes > 0
	t.entries[id].live = false
	t.free = append(t.free, id)
	t.live--
	if t.carried(lab, id) {
		t.dupes--
	}
	t.own()
	if dupBefore {
		t.reproject()
		return nil
	}
	// Lists inside the span all lost the same entry, so adjacent ones
	// that differed still differ: only the span's edges can coalesce.
	a, b := t.span(lo, hi)
	t.dropSpan(a, b, id)
	t.merge(b)
	t.merge(a)
	return nil
}

// Lookup returns the label of the narrowest range containing key. When
// several ranges tie on width, the earliest inserted wins.
func (t *Table) Lookup(key uint64) (label.Label, bool) {
	labs := t.LookupAll(key)
	if len(labs) == 0 {
		return 0, false
	}
	return labs[0], true
}

// LookupAll returns the labels of every range containing key, narrowest
// first. The returned slice aliases internal state and must not be
// modified or retained across mutations.
func (t *Table) LookupAll(key uint64) []label.Label {
	if len(t.starts) == 0 {
		return nil
	}
	i := t.find(key)
	end := t.offs[i+1]
	return t.labs[t.offs[i]:end:end]
}

// find returns the interval containing key: the last i with starts[i] <=
// key. Each halving step adds half under a mask taken from the
// comparison's borrow, so the search does not branch on the data: a
// branch there mispredicts on about every other step for random keys.
func (t *Table) find(key uint64) int {
	s := t.starts
	base := 0
	for n := len(s); n > 1; {
		half := n >> 1
		_, borrow := bits.Sub64(key, s[base+half], 0) // 1 when key < start
		base += half & (int(borrow) - 1)
		n -= half
	}
	return base
}

// Publish returns an immutable view of the table as it stands: the
// elementary intervals, shared, without the ranges they came from. Later
// updates to t clone the arrays before their first write, so they never
// show in the view.
func (t *Table) Publish() *Table {
	t.shared = true
	return &Table{starts: t.starts, offs: t.offs, labs: t.labs}
}

// Len returns the number of stored ranges.
func (t *Table) Len() int { return t.live }

// Segments returns the number of elementary intervals the current ranges
// project onto — the quantity the hardware memory model provisions. An
// uncovered interval before the lowest range is not one: a sweep over the
// range boundaries starts at the lowest.
func (t *Table) Segments() int {
	n := len(t.starts)
	if n > 0 && t.offs[1] == 0 {
		n--
	}
	return n
}

const noEntry = ^uint32(0)

func (t *Table) newEntry(e rangeEntry) uint32 {
	t.live++
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		t.entries[id] = e
		return id
	}
	t.entries = append(t.entries, e)
	return uint32(len(t.entries) - 1)
}

// carried reports whether a live entry other than except carries lab.
func (t *Table) carried(lab label.Label, except uint32) bool {
	for i := range t.entries {
		if e := &t.entries[i]; e.live && e.lab == lab && uint32(i) != except {
			return true
		}
	}
	return false
}

// own makes the interval arrays writable: it creates the single interval
// of an empty table, or clones the arrays a published view shares.
func (t *Table) own() {
	switch {
	case t.starts == nil:
		t.starts, t.offs = []uint64{0}, []uint32{0, 0}
	case t.shared:
		t.starts = clone(t.starts, 2)
		t.offs = clone(t.offs, 2)
		t.labs = clone(t.labs, 2*len(t.starts))
	}
	t.shared = false
}

// clone copies s with room for extra more elements.
func clone[T any](s []T, extra int) []T {
	return append(make([]T, 0, len(s)+extra), s...)
}

// span returns the intervals [a, b) that [lo, hi] covers, splitting the
// intervals that straddle its edges.
func (t *Table) span(lo, hi uint64) (a, b int) {
	a = t.split(lo)
	if hi == ^uint64(0) {
		return a, len(t.starts)
	}
	return a, t.split(hi + 1)
}

// split returns the interval starting at p, first splitting the interval
// containing p in two when p falls inside it; both halves hold its list.
func (t *Table) split(p uint64) int {
	i := t.find(p)
	if t.starts[i] == p {
		return i
	}
	s, e := t.offs[i], t.offs[i+1]
	k := e - s
	t.labs = grow(t.labs, int(k))
	t.ids = grow(t.ids, int(k))
	copy(t.labs[e+k:], t.labs[e:])
	copy(t.labs[e:e+k], t.labs[s:e])
	copy(t.ids[e+k:], t.ids[e:])
	copy(t.ids[e:e+k], t.ids[s:e])
	t.starts = slices.Insert(t.starts, i+1, p)
	t.offs = slices.Insert(t.offs, i+2, e)
	for j := i + 2; j < len(t.offs); j++ {
		t.offs[j] += k
	}
	return i + 1
}

// grow extends s by k elements.
func grow[T any](s []T, k int) []T {
	return slices.Grow(s, k)[:len(s)+k]
}

// addSpan adds entry id to the lists of intervals [a, b), each at its
// rank. One backward pass moves every list right by the number of
// additions before it, opening the entry's slot as it goes.
func (t *Table) addSpan(a, b int, id uint32) {
	k := uint32(b - a)
	end := t.offs[b]
	t.labs = grow(t.labs, int(k))
	t.ids = grow(t.ids, int(k))
	copy(t.labs[end+k:], t.labs[end:])
	copy(t.ids[end+k:], t.ids[end:])
	for j := b; j < len(t.offs); j++ {
		t.offs[j] += k
	}
	e := &t.entries[id]
	for j := b - 1; j >= a; j-- {
		s := t.offs[j]
		r := s
		for r < end && t.entries[t.ids[r]].before(e) {
			r++
		}
		shift := uint32(j - a)
		copy(t.labs[r+shift+1:], t.labs[r:end])
		copy(t.ids[r+shift+1:], t.ids[r:end])
		t.labs[r+shift], t.ids[r+shift] = e.lab, id
		copy(t.labs[s+shift:], t.labs[s:r])
		copy(t.ids[s+shift:], t.ids[s:r])
		t.offs[j] = s + shift
		end = s
	}
}

// dropSpan removes entry id from the lists of intervals [a, b). One
// forward pass moves every list left by the number of removals before it.
func (t *Table) dropSpan(a, b int, id uint32) {
	var drop uint32
	s := t.offs[a]
	for j := a; j < b; j++ {
		e := t.offs[j+1]
		p := s
		for p < e && t.ids[p] != id {
			p++
		}
		if p == e {
			panic(fmt.Sprintf("rangelookup: entry %d missing from interval %d", id, j))
		}
		copy(t.labs[s-drop:], t.labs[s:p])
		copy(t.ids[s-drop:], t.ids[s:p])
		copy(t.labs[p-drop:], t.labs[p+1:e])
		copy(t.ids[p-drop:], t.ids[p+1:e])
		t.offs[j] = s - drop
		drop++
		s = e
	}
	copy(t.labs[s-drop:], t.labs[s:])
	copy(t.ids[s-drop:], t.ids[s:])
	t.labs = t.labs[:len(t.labs)-int(drop)]
	t.ids = t.ids[:len(t.ids)-int(drop)]
	for j := b; j < len(t.offs); j++ {
		t.offs[j] -= drop
	}
}

// merge folds interval i into interval i-1 when their lists are equal.
func (t *Table) merge(i int) {
	if i <= 0 || i >= len(t.starts) {
		return
	}
	s, e := t.offs[i], t.offs[i+1]
	if !slices.Equal(t.labs[t.offs[i-1]:s], t.labs[s:e]) {
		return
	}
	k := e - s
	copy(t.labs[s:], t.labs[e:])
	copy(t.ids[s:], t.ids[e:])
	t.labs = t.labs[:len(t.labs)-int(k)]
	t.ids = t.ids[:len(t.ids)-int(k)]
	t.starts = slices.Delete(t.starts, i, i+1)
	t.offs = slices.Delete(t.offs, i+1, i+2)
	for j := i + 1; j < len(t.offs); j++ {
		t.offs[j] -= k
	}
}

// Check verifies the structure of a table that takes updates (not a
// published view): starts strictly increase from 0; offsets are monotone
// and end at the arena's length; every list holds live entries' labels,
// narrowest first with insertion order breaking ties; no two adjacent
// intervals hold equal lists; and the intervals are exactly those a
// from-scratch sweep over the stored ranges projects.
func (t *Table) Check() error {
	n := len(t.starts)
	if n == 0 {
		if t.live != 0 || len(t.offs) != 0 || len(t.labs) != 0 {
			return fmt.Errorf("rangelookup: no intervals for %d ranges, %d offsets, %d labels", t.live, len(t.offs), len(t.labs))
		}
		return nil
	}
	if t.starts[0] != 0 {
		return fmt.Errorf("rangelookup: first interval starts at %d, not 0", t.starts[0])
	}
	for i := 1; i < n; i++ {
		if t.starts[i] <= t.starts[i-1] {
			return fmt.Errorf("rangelookup: interval %d starts at %d, after %d", i, t.starts[i], t.starts[i-1])
		}
	}
	if len(t.offs) != n+1 {
		return fmt.Errorf("rangelookup: %d intervals, %d offsets", n, len(t.offs))
	}
	if t.offs[0] != 0 || int(t.offs[n]) != len(t.labs) || len(t.ids) != len(t.labs) {
		return fmt.Errorf("rangelookup: offsets run %d..%d over %d labels and %d ids", t.offs[0], t.offs[n], len(t.labs), len(t.ids))
	}
	for i := 0; i < n; i++ {
		s, e := t.offs[i], t.offs[i+1]
		if s > e {
			return fmt.Errorf("rangelookup: interval %d offsets %d > %d", i, s, e)
		}
		for k := s; k < e; k++ {
			id := t.ids[k]
			if int(id) >= len(t.entries) || !t.entries[id].live || t.entries[id].lab != t.labs[k] {
				return fmt.Errorf("rangelookup: interval %d holds label %d of entry %d, not a live entry's", i, t.labs[k], id)
			}
			if k > s && !t.entries[t.ids[k-1]].before(&t.entries[id]) {
				return fmt.Errorf("rangelookup: interval %d lists entry %d after %d, not narrowest first", i, id, t.ids[k-1])
			}
		}
		if i > 0 && slices.Equal(t.labs[t.offs[i-1]:s], t.labs[s:e]) {
			return fmt.Errorf("rangelookup: intervals %d and %d hold equal lists %v", i-1, i, t.labs[s:e])
		}
	}
	ref := sweep(t.entries)
	if got := t.Segments(); got != len(ref) {
		return fmt.Errorf("rangelookup: %d intervals, a sweep over the %d ranges gives %d", got, t.live, len(ref))
	}
	first := n - len(ref) // an uncovered leading interval the sweep omits
	for i, seg := range ref {
		j := first + i
		labs := t.labs[t.offs[j]:t.offs[j+1]]
		if t.starts[j] != seg.start || !slices.EqualFunc(labs, seg.ids, func(l label.Label, id uint32) bool { return l == t.entries[id].lab }) {
			return fmt.Errorf("rangelookup: interval %d is %d %v, a sweep gives %d over entries %v", j, t.starts[j], labs, seg.start, seg.ids)
		}
	}
	return nil
}

// reproject rebuilds the intervals from scratch with a sweep over the
// stored ranges.
func (t *Table) reproject() {
	segs := sweep(t.entries)
	t.starts, t.offs, t.labs, t.ids = t.starts[:0], t.offs[:0], t.labs[:0], t.ids[:0]
	if len(segs) == 0 || segs[0].start != 0 {
		t.starts, t.offs = append(t.starts, 0), append(t.offs, 0)
	}
	for _, seg := range segs {
		t.starts, t.offs = append(t.starts, seg.start), append(t.offs, uint32(len(t.ids)))
		for _, id := range seg.ids {
			t.labs, t.ids = append(t.labs, t.entries[id].lab), append(t.ids, id)
		}
	}
	t.offs = append(t.offs, uint32(len(t.ids)))
}

type segment struct {
	start uint64
	ids   []uint32
}

// sweep projects the live entries onto elementary intervals from scratch:
// at each range boundary, the covering entries in resolution order,
// starting a new interval only where their labels change.
func sweep(entries []rangeEntry) []segment {
	var points []uint64
	for _, e := range entries {
		if e.live {
			points = append(points, e.lo)
			if e.hi != ^uint64(0) {
				points = append(points, e.hi+1)
			}
		}
	}
	slices.Sort(points)
	var segs []segment
	for _, p := range slices.Compact(points) {
		var ids []uint32
		for i := range entries {
			if e := &entries[i]; e.live && e.lo <= p && p <= e.hi {
				ids = append(ids, uint32(i))
			}
		}
		slices.SortFunc(ids, func(x, y uint32) int {
			if entries[x].before(&entries[y]) {
				return -1
			}
			return 1
		})
		if n := len(segs); n > 0 && slices.EqualFunc(segs[n-1].ids, ids, func(x, y uint32) bool { return entries[x].lab == entries[y].lab }) {
			continue
		}
		segs = append(segs, segment{start: p, ids: ids})
	}
	return segs
}
