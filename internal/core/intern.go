package core

import (
	"sync"
	"sync/atomic"

	"ofmtl/internal/openflow"
)

// This file keeps Pipeline.Execute allocation-free in steady state. A
// Result carries two slices — the table walk and the egress ports — whose
// contents are drawn from a small, repeating population (pipelines have a
// handful of tables and ports). Instead of allocating fresh slices per
// packet, Execute interns them: each distinct walk or port set is
// materialised once in a lock-free content-addressed table and every later
// Result shares the canonical immutable copy. The first packet taking a
// new path pays one allocation; every subsequent packet pays none.

// internSize is the capacity of one intern table; a power of two. Distinct
// walks are bounded by the pipeline's table fan-out and distinct output
// sets by the port population, both far below this.
const internSize = 1024

// internProbes bounds the linear probe; on a full neighbourhood the
// caller falls back to an uninterned allocation (correct, just not free).
const internProbes = 16

// internEntry is one published canonical slice.
type internEntry[T any] struct {
	key uint64
	val []T
}

// internTable is a fixed-size lock-free hash table of canonical slices.
// Entries are published with CompareAndSwap and never replaced or removed,
// so readers need no synchronisation beyond the atomic load.
type internTable[T any] struct {
	slots [internSize]atomic.Pointer[internEntry[T]]
}

// intern returns the canonical slice for key, publishing build()'s result
// on first use. The returned slice is shared and must not be mutated.
func (t *internTable[T]) intern(key uint64, build func() []T) []T {
	i := internMix(key) & (internSize - 1)
	for p := 0; p < internProbes; p++ {
		slot := &t.slots[(i+uint64(p))&(internSize-1)]
		e := slot.Load()
		if e == nil {
			ne := &internEntry[T]{key: key, val: build()}
			if slot.CompareAndSwap(nil, ne) {
				return ne.val
			}
			e = slot.Load() // lost the race; see what won
		}
		if e.key == key {
			return e.val
		}
	}
	return build()
}

// internMix spreads packed keys across slots (MurmurHash3 finaliser).
func internMix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

// resultIntern is the pipeline's canonical-slice store. Keys are
// content-addressed, so entries stay valid across rule updates and
// snapshot rebuilds.
type resultIntern struct {
	paths   internTable[openflow.TableID]
	outs    internTable[uint32]
	results resultPtrTable
}

// internedPathMax is the longest walk that can be packed into an intern
// key: seven 8-bit table IDs plus a length byte.
const internedPathMax = 7

// internPath returns a canonical copy of the visited-table walk.
func (in *resultIntern) internPath(visited []openflow.TableID) []openflow.TableID {
	if len(visited) == 0 {
		return nil
	}
	if in == nil || len(visited) > internedPathMax {
		return append([]openflow.TableID(nil), visited...)
	}
	key := uint64(len(visited))
	for i, id := range visited {
		key |= uint64(id) << uint(8*(i+1))
	}
	return in.paths.intern(key, func() []openflow.TableID {
		return append([]openflow.TableID(nil), visited...)
	})
}

// internedOutsMax is the longest output list that can be packed into an
// intern key: two 31-bit ports plus a length marker. The action-set model
// holds at most one output today; the bound leaves headroom.
const internedOutsMax = 2

// internOutputs returns a canonical copy of the egress port list.
func (in *resultIntern) internOutputs(outs []uint32) []uint32 {
	if len(outs) == 0 {
		return nil
	}
	longPort := false
	for _, p := range outs {
		if p > 0x7FFFFFFF {
			longPort = true
			break
		}
	}
	if in == nil || len(outs) > internedOutsMax || longPort {
		return append([]uint32(nil), outs...)
	}
	key := uint64(len(outs))
	for i, p := range outs {
		key |= uint64(p) << uint(31*i+2)
	}
	return in.outs.intern(key, func() []uint32 {
		return append([]uint32(nil), outs...)
	})
}

// resultPtrTable is a fixed-size lock-free intern table of whole
// Results, keyed by content. The megaflow tier publishes one
// atomic.Pointer[Result] per cached entry (so a torn seqlock read can
// never mix two results' fields); interning the pointer keeps the
// steady-state install path allocation-free — a walk outcome seen
// before reuses its canonical heap copy. Distinct outcomes are bounded
// by the pipeline's path × port population, far below internSize.
type resultPtrTable struct {
	slots [internSize]atomic.Pointer[Result]
}

// internResult returns a canonical heap pointer for r. r is taken by
// value so callers' stack results never escape; only the first
// appearance of a distinct outcome allocates.
func (in *resultIntern) internResult(r Result) *Result {
	t := &in.results
	i := internMix(resultHashKey(&r)) & (internSize - 1)
	for p := 0; p < internProbes; p++ {
		slot := &t.slots[(i+uint64(p))&(internSize-1)]
		e := slot.Load()
		if e == nil {
			ne := new(Result)
			*ne = r
			if slot.CompareAndSwap(nil, ne) {
				return ne
			}
			e = slot.Load() // lost the race; see what won
		}
		if resultsEqual(e, &r) {
			return e
		}
	}
	ne := new(Result)
	*ne = r
	return ne
}

// resultHashKey condenses a Result's content (FNV-1a over scalars and
// slice elements).
func resultHashKey(r *Result) uint64 {
	const prime = 0x100000001B3
	h := uint64(0xCBF29CE484222325)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	flags := uint64(0)
	if r.Matched {
		flags |= 1
	}
	if r.SentToController {
		flags |= 2
	}
	if r.Dropped {
		flags |= 4
	}
	mix(flags)
	mix(uint64(r.MatchedTables))
	mix(uint64(len(r.Outputs)))
	for _, p := range r.Outputs {
		mix(uint64(p))
	}
	mix(uint64(len(r.TablesVisited)))
	for _, id := range r.TablesVisited {
		mix(uint64(id))
	}
	return h
}

// resultsEqual compares a published Result against a candidate by
// content (slice elements, not slice headers — interned slices make the
// header compare usually succeed, but content is the contract).
func resultsEqual(a, b *Result) bool {
	if a.Matched != b.Matched || a.SentToController != b.SentToController ||
		a.Dropped != b.Dropped || a.MatchedTables != b.MatchedTables ||
		len(a.Outputs) != len(b.Outputs) || len(a.TablesVisited) != len(b.TablesVisited) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	for i := range a.TablesVisited {
		if a.TablesVisited[i] != b.TablesVisited[i] {
			return false
		}
	}
	return true
}

// execScratch carries one packet's walk: the visited tables, the egress
// ports, the accumulating action set, the table it stands at and the
// result it builds, and — for traced (megaflow-installing) walks — the
// consulted-bits mask and the rewritten-fields bitmask. It lives in a
// walker the caller owns (a batch worker's context, or walkerPool), so
// steady-state execution performs no heap allocation.
type execScratch struct {
	visited []openflow.TableID
	outs    []uint32
	as      actionSet

	// cur is the table the walk stands at while state is walking; res
	// is the result the walk builds.
	cur   openflow.TableID
	state walkState
	res   Result

	tr        flowMask // union of consulted bits (valid when traced)
	rewritten uint64   // FieldIDs mutated mid-walk (always tracked; cheap)

	// refs collects the lifecycle refs of the rules the walk matched, for
	// per-flow counter attribution. refOverflow marks a walk that matched
	// more rules than the bound; such an outcome is counted (first
	// ctrRefMax rules) but never installed into a cache tier.
	refs        [ctrRefMax]uint32
	nrefs       int
	refOverflow bool
}

// walkState is where a walk stands.
type walkState uint8

const (
	walking     walkState = iota // at table cur
	walkActions                  // left the tables: the action set runs
	walkEnded                    // ended early: res is the outcome
	walkDone                     // res is the walk's result
)

func (sc *execScratch) reset() {
	sc.visited = sc.visited[:0]
	sc.outs = sc.outs[:0]
	sc.as.clear()
	sc.rewritten = 0
	sc.nrefs = 0
	sc.refOverflow = false
}

// walker is the working state of a group of walks: each packet's walk
// scratch, and the lookup group every table on the walks classifies
// with, slot p of which is packet p's. A batch worker's context holds one
// for its groups of walkGroup packets; a single Execute or Classify takes
// one from walkerPool and uses slot 0.
type walker struct {
	sc []execScratch
	g  lookupGroup
}

// size makes room for n walks.
func (w *walker) size(n int) {
	w.sc = atLeast(w.sc, n)
	w.g.size(n)
}

// begin prepares slot p for a walk of h against s, traced when the masked
// tier wants its outcome.
func (w *walker) begin(p int, h *openflow.Header, s *snapshot, traced bool) {
	sc, ls := &w.sc[p], &w.g.ls[p]
	sc.reset()
	w.g.hs[p], ls.tr = h, nil
	if traced {
		sc.tr.reset()
		ls.tr = &sc.tr
	}
	sc.res = Result{}
	if len(s.order) == 0 {
		sc.res.SentToController, sc.state = true, walkDone
		return
	}
	sc.cur, sc.state = s.order[0], walking
}

// release drops what slots 0…n−1 point at — the headers, the matched
// rules' instructions, the results' interned slices — so that a walker
// resting in a pool or a batch context keeps no pipeline or trace alive.
func (w *walker) release(n int) {
	n = min(n, len(w.sc))
	clear(w.g.hs[:n])
	clear(w.g.out[:n])
	for i := range w.sc[:n] {
		w.sc[i].res = Result{}
	}
}

var walkerPool = sync.Pool{New: func() any { return new(walker) }}
