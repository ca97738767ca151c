package cow

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestViewsAreUnaffectedByLaterWrites pins the contract: a published view
// keeps its contents through any later writes, growth and publishes on
// the live side, and nil pages read as zero on both.
func TestViewsAreUnaffectedByLaterWrites(t *testing.T) {
	SealForTest(t)
	var a Array[int]
	const n = 3*PageSize + 17
	for i := 0; i < n; i += 3 {
		*a.Mut(i) = i
	}
	v1 := a.Publish()
	for i := 0; i < n; i += 5 {
		*a.Mut(i) = -i
	}
	*a.Mut(10 * PageSize) = 99 // grows the live directory past the view's
	v2 := a.Publish()
	for i := 0; i < n; i++ {
		*a.Mut(i) = 7
	}
	for i := 0; i < n; i++ {
		want1 := 0
		if i%3 == 0 {
			want1 = i
		}
		want2 := want1
		if i%5 == 0 {
			want2 = -i
		}
		if got := v1.Get(i); got != want1 {
			t.Fatalf("first view, element %d: %d, want %d", i, got, want1)
		}
		if got := v2.Get(i); got != want2 {
			t.Fatalf("second view, element %d: %d, want %d", i, got, want2)
		}
		if got := a.Get(i); got != 7 {
			t.Fatalf("live, element %d: %d, want 7", i, got)
		}
	}
	if got := v1.Get(10 * PageSize); got != 0 {
		t.Fatalf("first view reads %d past its directory, want 0", got)
	}
	if got := v2.Get(10 * PageSize); got != 99 {
		t.Fatalf("second view, grown element: %d, want 99", got)
	}
	if got := v2.Get(5 * PageSize); got != 0 {
		t.Fatalf("nil page reads %d, want 0", got)
	}
}

// TestMutCopiesAPageAtMostOncePerPublish pins the cost model: the first
// write to a published page copies it, later writes until the next
// Publish do not, fresh pages are not copies, a Publish after a write
// clones the directory, an unchanged array republishes the same
// directory, and Copied counts every copied byte.
func TestMutCopiesAPageAtMostOncePerPublish(t *testing.T) {
	var a Array[uint32]
	const pageBytes = PageSize * 4
	base := Copied()
	for i := 0; i < 4*PageSize; i++ {
		*a.Mut(i) = uint32(i)
	}
	if got := Copied() - base; got != 0 {
		t.Fatalf("filling fresh pages copied %d bytes, want 0", got)
	}
	v := a.Publish()
	if got := Copied() - base; got != 4*8 {
		t.Fatalf("publishing a 4-page array copied %d bytes, want its 32-byte directory", got)
	}
	if again := a.Publish(); &again.Dir[0] != &v.Dir[0] {
		t.Fatal("an unchanged array published a second directory")
	}
	base = Copied()
	for round := 0; round < 3; round++ {
		*a.Mut(5) = 1
		*a.Mut(6) = 2
		*a.Mut(2*PageSize + 1) = 3
		copy(a.MutSpan(2*PageSize+8, 4), []uint32{4, 5, 6, 7})
	}
	if got := Copied() - base; got != 2*pageBytes {
		t.Fatalf("writes to two published pages copied %d bytes, want %d", got, 2*pageBytes)
	}
	if v.Get(5) != 5 || v.Get(2*PageSize+9) != uint32(2*PageSize+9) {
		t.Fatal("the view saw the live side's writes")
	}
	if got := a.Span(2*PageSize+8, 4); got[0] != 4 || got[3] != 7 {
		t.Fatalf("MutSpan writes lost: %v", got)
	}
	if again := a.Publish(); &again.Dir[0] == &v.Dir[0] {
		t.Fatal("a changed array republished its old directory")
	}
}

// TestCloneCountsItsCopy: a flat clone outside an Array is counted too,
// and leaves room for the elements asked for.
func TestCloneCountsItsCopy(t *testing.T) {
	s := []uint64{1, 2, 3}
	base := Copied()
	c := Clone(s, 5)
	if got := Copied() - base; got != 24 {
		t.Fatalf("cloning three words counted %d bytes, want 24", got)
	}
	c[0] = 9
	if s[0] != 1 || len(c) != 3 || cap(c) < 8 {
		t.Fatalf("clone %v (cap %d) of %v", c, cap(c), s)
	}
}

// TestWriteToViewPanics: views are immutable by construction.
func TestWriteToViewPanics(t *testing.T) {
	var a Array[int]
	*a.Mut(1) = 1
	v := a.Publish()
	for name, f := range map[string]func(){
		"Mut":  func() { *v.Mut(1) = 2 },
		"Grow": func() { v.Grow(5 * PageSize) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s on a view did not panic", name)
				}
			}()
			f()
		}()
	}
}

// errorSink is the testing.TB stand-in for driving SealForTest to a
// failure without failing this test.
type errorSink struct {
	errs     []string
	cleanups []func()
}

func (e *errorSink) Helper()           {}
func (e *errorSink) Cleanup(f func())  { e.cleanups = append(e.cleanups, f) }
func (e *errorSink) Error(args ...any) { e.errs = append(e.errs, args[0].(error).Error()) }
func (e *errorSink) finish() {
	for _, f := range e.cleanups {
		f()
	}
}

// TestSealCatchesWriteToPublishedPage is the check's own test: a write
// that bypasses Mut is reported at teardown and panics the next Publish,
// while every write through Mut passes.
func TestSealCatchesWriteToPublishedPage(t *testing.T) {
	sink := new(errorSink)
	SealForTest(sink)
	var a Array[int]
	for i := 0; i < 2*PageSize; i++ {
		*a.Mut(i) = i
	}
	v := a.Publish()
	*a.Mut(3) = 42
	a.Publish()
	if err := VerifySeals(); err != nil {
		t.Fatalf("writes through Mut tripped the seals: %v", err)
	}

	a.Dir[1][7] = -1 // page 1 is published and was never made private
	err := VerifySeals()
	if err == nil || !strings.Contains(err.Error(), "written after publish") {
		t.Fatalf("direct write to a published page not reported: %v", err)
	}
	*a.Mut(0) = 1
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Publish after a direct write to a published page did not panic")
			}
		}()
		a.Publish()
	}()
	sink.finish()
	if len(sink.errs) != 1 {
		t.Fatalf("teardown reported %d errors, want 1: %v", len(sink.errs), sink.errs)
	}
	// Undo the damage so the process-wide registry is clean for the tests
	// that follow.
	a.Dir[1][7] = PageSize + 7
	if err := VerifySeals(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(v)
}

// TestSealsFollowReachability: a sealed page only an old view referenced
// drops out of the check with that view.
func TestSealsFollowReachability(t *testing.T) {
	SealForTest(t)
	var a Array[int]
	*a.Mut(0) = 1
	v := a.Publish()
	*a.Mut(0) = 2 // the live side moves to a private copy
	a.Publish()
	sealedBefore := len(a.w.seals.pages)
	v = Array[int]{}
	runtime.GC()
	runtime.GC()
	if err := a.w.seals.verify(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.w.seals.pages); got >= sealedBefore {
		t.Fatalf("%d sealed pages tracked after the only holder of one was dropped, had %d", got, sealedBefore)
	}
	_ = v
}

// TestReadersNeverSeeWrites runs readers over published views while the
// writer keeps mutating and publishing: under -race any page shared
// between a view and a writable page is a reported race, and every view
// must read back the generation it was published at.
func TestReadersNeverSeeWrites(t *testing.T) {
	SealForTest(t)
	const n = 4 * PageSize
	var a Array[int]
	// Buffered so the writer runs ahead and views of several generations
	// are being read while it writes the next.
	views := make(chan Array[int], 4)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				gen := v.Get(0)
				for i := 0; i < n; i += 61 {
					if got := v.Dir[i>>PageShift][i&PageMask]; got != gen {
						t.Errorf("view of generation %d reads %d at %d", gen, got, i)
						break
					}
				}
			}
		}()
	}
	for gen := 1; gen <= 200; gen++ {
		for i := 0; i < n; i += 61 {
			*a.Mut(i) = gen
		}
		views <- a.Publish()
	}
	close(views)
	wg.Wait()
}
