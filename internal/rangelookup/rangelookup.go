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
	"sort"

	"ofmtl/internal/label"
)

type rangeEntry struct {
	lo, hi uint64
	lab    label.Label
	seq    int // insertion order, breaks narrowness ties deterministically
}

type segment struct {
	start uint64 // inclusive
	// labs holds the labels of every range covering this segment, ordered
	// narrowest first (insertion order breaking ties). Empty means no
	// coverage.
	labs []label.Label
}

// Table is a range-matching table over keys of up to 64 bits. The zero
// value is an empty, usable table. The stored ranges are control state;
// lookups read only the elementary intervals projected from them, which
// are rebuilt into a fresh slice after every change and never written
// again — so a published view shares them.
type Table struct {
	entries []rangeEntry
	nextSeq int

	dirty    bool
	segments []segment
	// sortScratch is reused across labelsOf calls within one rebuild, so
	// the sweep allocates only the per-segment label slices it retains.
	sortScratch []int
}

// Insert adds the inclusive range [lo, hi] with the given label. Duplicate
// ranges may coexist (they carry different labels under the label method).
func (t *Table) Insert(lo, hi uint64, lab label.Label) error {
	if lo > hi {
		return fmt.Errorf("rangelookup: inverted range [%d, %d]", lo, hi)
	}
	t.entries = append(t.entries, rangeEntry{lo: lo, hi: hi, lab: lab, seq: t.nextSeq})
	t.nextSeq++
	t.dirty = true
	return nil
}

// Remove deletes one occurrence of the range [lo, hi] bound to lab.
func (t *Table) Remove(lo, hi uint64, lab label.Label) error {
	for i, e := range t.entries {
		if e.lo == lo && e.hi == hi && e.lab == lab {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			t.dirty = true
			return nil
		}
	}
	return fmt.Errorf("rangelookup: remove of absent range [%d, %d] label %d", lo, hi, lab)
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
	t.rebuild()
	if len(t.segments) == 0 {
		return nil
	}
	// Find the last segment whose start <= key.
	idx := sort.Search(len(t.segments), func(i int) bool { return t.segments[i].start > key }) - 1
	if idx < 0 {
		return nil
	}
	return t.segments[idx].labs
}

// Publish returns an immutable view of the table as it stands: the
// elementary intervals, precomputed and shared, without the ranges they
// came from. Lookups on the view never rebuild (LookupAll's lazy rebuild
// would otherwise race between concurrent readers), and later updates to
// t never show in it.
func (t *Table) Publish() *Table {
	t.rebuild()
	return &Table{segments: t.segments}
}

// Len returns the number of stored ranges.
func (t *Table) Len() int { return len(t.entries) }

// Segments returns the number of elementary intervals the current ranges
// project onto — the quantity the hardware memory model provisions.
func (t *Table) Segments() int {
	t.rebuild()
	return len(t.segments)
}

// rebuild projects the ranges onto elementary intervals with a sweep
// line over the boundary events. Hardware performs this precomputation at
// update time; the table performs it lazily after mutations — and, since
// the pipeline's memory accounting reads Segments on every transaction
// commit, the sweep maintains an active-range set so each boundary costs
// O(active) instead of a scan of every stored range.
func (t *Table) rebuild() {
	if !t.dirty {
		return
	}
	t.dirty = false
	// A fresh slice every time: views share the previous one.
	t.segments = make([]segment, 0, len(t.segments))
	if len(t.entries) == 0 {
		return
	}

	// Boundary events: a range enters at lo and leaves just after hi
	// (where coverage can change).
	type event struct {
		p     uint64
		enter bool
		idx   int
	}
	events := make([]event, 0, 2*len(t.entries))
	for i, e := range t.entries {
		events = append(events, event{p: e.lo, enter: true, idx: i})
		if e.hi != ^uint64(0) {
			events = append(events, event{p: e.hi + 1, enter: false, idx: i})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].p < events[j].p })

	active := make([]int, 0, len(t.entries))
	for ei := 0; ei < len(events); {
		p := events[ei].p
		for ei < len(events) && events[ei].p == p {
			ev := events[ei]
			if ev.enter {
				active = append(active, ev.idx)
			} else {
				for k, idx := range active {
					if idx == ev.idx {
						active = append(active[:k], active[k+1:]...)
						break
					}
				}
			}
			ei++
		}
		labs := t.labelsOf(active)
		// Coalesce with the previous segment when nothing changed.
		if n := len(t.segments); n > 0 && equalLabels(t.segments[n-1].labs, labs) {
			continue
		}
		t.segments = append(t.segments, segment{start: p, labs: labs})
	}
}

// labelsOf returns the labels of the active ranges ordered narrowest
// first (ties by insertion order) — the paper's RM resolution order.
func (t *Table) labelsOf(active []int) []label.Label {
	if len(active) == 0 {
		return nil
	}
	idxs := append(t.sortScratch[:0], active...)
	t.sortScratch = idxs
	sort.Slice(idxs, func(i, j int) bool {
		a, b := &t.entries[idxs[i]], &t.entries[idxs[j]]
		wa, wb := a.hi-a.lo, b.hi-b.lo
		if wa != wb {
			return wa < wb
		}
		return a.seq < b.seq
	})
	out := make([]label.Label, len(idxs))
	for i, idx := range idxs {
		out[i] = t.entries[idx].lab
	}
	return out
}

func equalLabels(a, b []label.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
