// Package label implements the label method of Section IV.B of the paper
// (after Taylor & Turner's Distributed Crossproducting of Field Labels):
// every unique field value is assigned a small integer label, so that rules
// sharing a field value share one stored copy of it. The per-field lookup
// algorithms store and return labels; the index-calculation stage combines
// labels into action-table addresses.
//
// The allocator is reference counted so that rule deletion can release a
// value's storage exactly when the last rule using it disappears — this is
// what gives the architecture its incremental update ability.
package label

import (
	"fmt"
	"sort"
)

// Label is the compact identifier assigned to one unique field value.
// Labels are dense: an allocator that currently holds n values uses labels
// drawn from [0, high-water mark), recycling freed labels before minting
// new ones.
type Label uint32

// NoLabel is returned by lookups that find no binding.
const NoLabel = Label(0xFFFFFFFF)

// Allocator assigns labels to unique values of one field (or field
// partition). The zero value is ready to use.
//
// An allocator is control state: only rule updates consult it. Published
// lookup views carry Counters, the three numbers the memory model reads.
type Allocator[K comparable] struct {
	byValue map[K]binding
	byLabel map[Label]K
	free    []Label // freed labels available for reuse (LIFO)
	next    Label   // next never-used label
	live    int     // live bindings
	peak    int     // high-water mark of live bindings
}

type binding struct {
	label Label
	refs  int
}

// NewAllocator returns an empty allocator.
func NewAllocator[K comparable]() *Allocator[K] {
	return &Allocator[K]{
		byValue: make(map[K]binding),
		byLabel: make(map[Label]K),
	}
}

func (a *Allocator[K]) lazyInit() {
	if a.byValue == nil {
		a.byValue = make(map[K]binding)
		a.byLabel = make(map[Label]K)
	}
}

// Acquire returns the label for value v, allocating one if v is new, and
// increments v's reference count. The second result reports whether the
// value was newly inserted (and therefore must be added to the backing
// lookup structure).
func (a *Allocator[K]) Acquire(v K) (Label, bool) {
	a.lazyInit()
	if b, ok := a.byValue[v]; ok {
		b.refs++
		a.byValue[v] = b
		return b.label, false
	}
	var l Label
	if n := len(a.free); n > 0 {
		l = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		l = a.next
		a.next++
	}
	a.byValue[v] = binding{label: l, refs: 1}
	a.byLabel[l] = v
	if a.live++; a.live > a.peak {
		a.peak = a.live
	}
	return l, true
}

// Release decrements the reference count of v. It reports whether the value
// was removed entirely (reference count reached zero), in which case the
// caller must remove it from the backing lookup structure. Releasing an
// unknown value is an error.
func (a *Allocator[K]) Release(v K) (bool, error) {
	b, ok := a.byValue[v]
	if !ok {
		return false, fmt.Errorf("label: release of unknown value %v", v)
	}
	b.refs--
	if b.refs > 0 {
		a.byValue[v] = b
		return false, nil
	}
	delete(a.byValue, v)
	delete(a.byLabel, b.label)
	a.free = append(a.free, b.label)
	a.live--
	return true, nil
}

// Counters returns an allocator holding a's counters — Len, Peak and
// LabelSpace — and no bindings: what a published lookup view keeps of an
// allocator, so the memory model reads views and live structures alike.
func (a *Allocator[K]) Counters() *Allocator[K] {
	return &Allocator[K]{next: a.next, live: a.live, peak: a.peak}
}

// Lookup returns the label bound to v, or NoLabel if v is unknown.
func (a *Allocator[K]) Lookup(v K) Label {
	if b, ok := a.byValue[v]; ok {
		return b.label
	}
	return NoLabel
}

// Value returns the value bound to label l and whether the binding exists.
func (a *Allocator[K]) Value(l Label) (K, bool) {
	v, ok := a.byLabel[l]
	return v, ok
}

// Refs returns the current reference count of v (0 if unknown).
func (a *Allocator[K]) Refs(v K) int {
	if b, ok := a.byValue[v]; ok {
		return b.refs
	}
	return 0
}

// Len returns the number of live unique values.
func (a *Allocator[K]) Len() int { return a.live }

// Peak returns the high-water mark of live unique values, which sizes the
// label field width in the hardware memory model.
func (a *Allocator[K]) Peak() int { return a.peak }

// RestorePeak sets the high-water mark to peak, but never below the live
// binding count. It is how a rejected commit puts back the mark it found:
// the commit's inserts may have raised the peak (and with it the modelled
// label width) before being undone.
func (a *Allocator[K]) RestorePeak(peak int) {
	if peak < a.live {
		peak = a.live
	}
	a.peak = peak
}

// LabelSpace returns the number of distinct labels ever minted (freed
// labels still count — hardware must provision for them until compaction).
func (a *Allocator[K]) LabelSpace() int { return int(a.next) }

// Labels returns the live labels in ascending order.
func (a *Allocator[K]) Labels() []Label {
	out := make([]Label, 0, len(a.byLabel))
	for l := range a.byLabel {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
