// Package cow is the page-shared storage under the pipeline's published
// lookup views. The lookup structures (multi-bit tries, combination
// stores, action rows, the DIR-24-8 arrays) keep their element arrays in
// fixed-size pages behind a page directory. Publishing a view copies the
// directory, not the pages; the live side then copies a page the first
// time it writes it after a publish and writes its private copy in place
// until the next one. A commit therefore costs the pages it touches plus
// the directories it dirtied, whatever the size of the table. Copied
// counts both, in bytes.
//
// The invariant everything above relies on: a published page is never
// written again. Mut is the only way to obtain a writable element, and it
// hands out pages no view can reach. Tests call SealForTest to checksum
// every page as it is published and re-verify the checksums on every
// later publish and at teardown.
//
// An Array belongs to one writer at a time (the pipeline's write lock);
// the value Publish returns is immutable and safe for any number of
// concurrent readers.
package cow

import (
	"sync/atomic"
	"unsafe"
)

// Page geometry: 64 elements per page, one constant for every element
// type. A commit pays a whole page for every page it writes, and the
// combination stores write theirs scattered by hash: a 40 B slot costs a
// 2.5 KiB page rather than a 40 KiB one. The directory is the other
// term: 8 B per page, cloned whole on every publish that follows a write
// (64 KiB for a 512 k-slot store). A structure whose lookups want a
// short directory pages groups of elements instead — a trie level pages
// groups of 16 slots (1024 per directory entry, 20 KiB pages), the
// DIR-24-8 direct table groups of 64 slots (4096 per entry), and the
// combination stores' control bytes groups of 16 bytes (1 KiB pages, a
// 4 KiB directory for 512 k slots). The constant is chosen by
// measurement: see README "Views, pages and epochs".
const (
	PageShift = 6
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// copied counts the bytes copied to keep views immutable, process-wide:
// pages copied on write (fresh pages are not copies), directories cloned
// by Publish and flat arrays copied by Clone. Read through Copied by the
// commit-cost test and the commit benchmarks.
var copied atomic.Uint64

// Copied returns the bytes copied since process start to keep published
// views immutable.
func Copied() uint64 { return copied.Load() }

// Clone returns a copy of s with room for extra more elements, counted in
// Copied: how a structure that does not page an array copies it whole
// before writing what a view shares.
func Clone[T any](s []T, extra int) []T {
	var zero T
	copied.Add(uint64(len(s)) * uint64(unsafe.Sizeof(zero)))
	return append(make([]T, 0, len(s)+extra), s...)
}

// Array is a paged array of T. The zero value is an empty live array. The
// struct is what lookups read — the directory — plus one pointer to the
// write side's bookkeeping, so embedding structures stay compact.
type Array[T any] struct {
	// Dir is the page directory: element i lives at
	// Dir[i>>PageShift][i&PageMask]. Lookup code indexes it directly so
	// the read path carries no call; a nil page holds zero values.
	Dir []*[PageSize]T
	// w is the write side; nil until the first write and in views.
	w *writer[T]
	// view is set in the values Publish returns.
	view bool
}

// writer is an Array's copy-on-write bookkeeping.
type writer[T any] struct {
	// owner[p] == epoch marks page p private to the live side: allocated
	// or copied since the last Publish, reachable from no view.
	owner []uint64
	epoch uint64
	// pub is the directory the last Publish handed out, reused while no
	// write or Grow has followed it.
	pub []*[PageSize]T
	// seals lists the pages sealed while a SealForTest test ran.
	seals *sealSet
}

// Grow extends the directory to cover n elements. New pages stay nil
// until first written.
func (a *Array[T]) Grow(n int) {
	pages := (n + PageMask) >> PageShift
	if pages <= len(a.Dir) {
		return
	}
	if a.view {
		panic("cow: Grow on a published view")
	}
	if a.w == nil {
		a.w = new(writer[T])
	}
	a.Dir = append(a.Dir, make([]*[PageSize]T, pages-len(a.Dir))...)
	a.w.owner = append(a.w.owner, make([]uint64, pages-len(a.w.owner))...)
	a.w.pub = nil
}

// Get returns element i; elements of nil or absent pages read as zero.
func (a *Array[T]) Get(i int) T {
	if p := i >> PageShift; p < len(a.Dir) {
		if pg := a.Dir[p]; pg != nil {
			return pg[i&PageMask]
		}
	}
	var zero T
	return zero
}

// Span returns elements [i, i+n) for reading. They must lie within one
// allocated page.
func (a *Array[T]) Span(i, n int) []T {
	off := i & PageMask
	return a.Dir[i>>PageShift][off : off+n]
}

// Mut returns element i for writing, in a page private to the live side:
// the page is allocated if nil and copied if a view can reach it — at
// most once per Publish. The directory grows to cover i. The pointer
// stays valid until the next Publish.
func (a *Array[T]) Mut(i int) *T {
	return &a.page(i >> PageShift)[i&PageMask]
}

// MutSpan is Span for writing: elements [i, i+n) of one private page.
func (a *Array[T]) MutSpan(i, n int) []T {
	off := i & PageMask
	return a.page(i >> PageShift)[off : off+n]
}

// page returns page p private to the live side.
func (a *Array[T]) page(p int) *[PageSize]T {
	if w := a.w; w != nil && p < len(w.owner) && w.owner[p] == w.epoch {
		if pg := a.Dir[p]; pg != nil {
			return pg
		}
	}
	return a.own(p)
}

// own makes page p private to the live side and returns it.
func (a *Array[T]) own(p int) *[PageSize]T {
	if a.view {
		panic("cow: write to a published view")
	}
	a.Grow((p + 1) << PageShift)
	pg := new([PageSize]T)
	if old := a.Dir[p]; old != nil {
		*pg = *old
		copied.Add(uint64(unsafe.Sizeof(*pg)))
	}
	a.Dir[p], a.w.owner[p] = pg, a.w.epoch
	a.w.pub = nil
	return pg
}

// Publish returns an immutable view of the array's current contents: a
// copy of the directory sharing every page. Pages the view can reach are
// never written again — the live side's next write to one copies it
// first. While nothing has been written since the previous Publish the
// same directory is handed out again.
func (a *Array[T]) Publish() Array[T] {
	w := a.w
	if w == nil {
		return Array[T]{Dir: a.Dir, view: true}
	}
	if w.pub == nil {
		if sealing.Load() > 0 {
			a.seal()
		}
		w.pub = Clone(a.Dir, 0)
		w.epoch++
	} else if w.seals != nil {
		w.seals.mustVerify()
	}
	return Array[T]{Dir: w.pub, view: true}
}
