package cow

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// The page-immutability check. With sealing on, Publish checksums every
// page that just became reachable from a view and re-verifies, on every
// later Publish of the same array and in VerifySeals, every sealed page
// something still holds (pages are tracked weakly, so a page only old
// views referenced drops out with them). A mismatch means the live side
// wrote a published page: a write that bypassed Mut, or a pointer from
// Mut kept across a Publish.

var (
	sealing  atomic.Int32 // tests with sealing on
	sealSeed = maphash.MakeSeed()

	sealSetsMu sync.Mutex
	sealSets   []*sealSet
)

// sealSet is one array's sealed pages.
type sealSet struct {
	mu    sync.Mutex
	pages []sealedPage
}

// sealedPage re-checksums one page: sum reports ok=false once the page
// has been collected.
type sealedPage struct {
	what string
	want uint64
	sum  func() (got uint64, ok bool)
}

// TB is the part of testing.TB SealForTest needs.
type TB interface {
	Helper()
	Cleanup(func())
	Error(args ...any)
}

// SealForTest turns the page-immutability check on until the test ends,
// and fails the test if, by then, any published page was written. Tests
// only: a sealed publish costs a checksum of every page its array holds.
// Sealing is process-wide while any such test runs.
func SealForTest(t TB) {
	t.Helper()
	sealing.Add(1)
	t.Cleanup(func() {
		sealing.Add(-1)
		if err := VerifySeals(); err != nil {
			t.Error(err)
		}
	})
}

// VerifySeals re-checksums every sealed page still reachable and reports
// the ones written since they were published.
func VerifySeals() error {
	sealSetsMu.Lock()
	sets := append([]*sealSet(nil), sealSets...)
	sealSetsMu.Unlock()
	for _, s := range sets {
		if err := s.verify(); err != nil {
			return err
		}
	}
	return nil
}

func (s *sealSet) verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.pages[:0]
	var bad []string
	for _, p := range s.pages {
		got, ok := p.sum()
		if !ok {
			continue
		}
		live = append(live, p)
		if got != p.want {
			bad = append(bad, p.what)
		}
	}
	clear(s.pages[len(live):])
	s.pages = live
	if len(bad) > 0 {
		return fmt.Errorf("cow: %d published page(s) written after publish (first: %s)", len(bad), bad[0])
	}
	return nil
}

func (s *sealSet) mustVerify() {
	if err := s.verify(); err != nil {
		panic(err)
	}
}

// seal verifies the array's sealed pages, then seals the pages that were
// private during the epoch now ending. Called by Publish before the epoch
// advances.
func (a *Array[T]) seal() {
	w := a.w
	if w.seals == nil {
		w.seals = new(sealSet)
		sealSetsMu.Lock()
		sealSets = append(sealSets, w.seals)
		sealSetsMu.Unlock()
	}
	w.seals.mustVerify()
	w.seals.mu.Lock()
	defer w.seals.mu.Unlock()
	for p, pg := range a.Dir {
		if pg == nil || w.owner[p] != w.epoch {
			continue
		}
		wp := weak.Make(pg)
		sum := func() (uint64, bool) {
			pg := wp.Value()
			if pg == nil {
				return 0, false
			}
			return maphash.Bytes(sealSeed, unsafe.Slice((*byte)(unsafe.Pointer(pg)), unsafe.Sizeof(*pg))), true
		}
		want, _ := sum()
		w.seals.pages = append(w.seals.pages, sealedPage{
			what: fmt.Sprintf("%T page %d sealed at epoch %d", pg, p, w.epoch),
			want: want,
			sum:  sum,
		})
	}
}
