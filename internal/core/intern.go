package core

import (
	"sync"
	"sync/atomic"

	"ofmtl/internal/openflow"
)

// This file keeps Pipeline.Execute allocation-free in steady state. A
// walk's outcome is a Result with two slices, the table walk and the
// egress ports, and outcomes repeat: pipelines have a handful of tables,
// ports and groups. So a finished walk is interned whole, once: the
// pipeline's one outcome table, lock-free and content-addressed, holds
// each distinct outcome, slices included, and every walk with that
// outcome gets the same canonical pointer. The caller's Result is a copy
// of it, and the cache tiers store the pointer itself (flowcache.go), so
// a torn slot read can never mix two outcomes' fields. The first walk
// with a new outcome copies its slices once; every later one allocates
// nothing.

// outcomeSize is the outcome table's capacity; a power of two. Distinct
// outcomes are bounded by the pipeline's paths × port sets, far below it.
const outcomeSize = 1024

// outcomeProbes bounds the linear probe; on a full neighbourhood the
// walk gets an uninterned copy (correct, just not free).
const outcomeProbes = 16

// outcomeTable is the pipeline's store of walk outcomes. Entries are
// published with CompareAndSwap and never replaced or removed, so readers
// need no synchronisation beyond the atomic load; keyed by content, they
// stay valid across rule updates and snapshot rebuilds.
type outcomeTable struct {
	slots [outcomeSize]atomic.Pointer[Result]
}

// intern returns the canonical Result equal to r. r's slices may be a
// walk's scratch: the table keeps its own copies, made when r's outcome
// first appears. The returned Result is shared and must not be mutated.
func (t *outcomeTable) intern(r *Result) *Result {
	i := internMix(resultHashKey(r))
	for p := uint64(0); p < outcomeProbes; p++ {
		slot := &t.slots[(i+p)&(outcomeSize-1)]
		e := slot.Load()
		if e == nil {
			ne := cloneResult(r)
			if slot.CompareAndSwap(nil, ne) {
				return ne
			}
			e = slot.Load() // lost the race; see what won
		}
		if resultsEqual(e, r) {
			return e
		}
	}
	return cloneResult(r)
}

// cloneResult returns a heap copy of r that shares no slice with it (an
// empty slice becomes nil).
func cloneResult(r *Result) *Result {
	c := *r
	c.Outputs = append([]uint32(nil), r.Outputs...)
	c.TablesVisited = append([]openflow.TableID(nil), r.TablesVisited...)
	return &c
}

// internMix spreads hash keys across slots (MurmurHash3 finaliser).
func internMix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
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

// resultsEqual compares two Results by content: slice elements, not
// slice headers.
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
// ports, the accumulating action set, the table it stands at, the result
// it builds and the interned outcome it ends in, and — for traced
// (megaflow-installing) walks — the consulted-bits mask — and the walk's
// mid-walk rewrites. It lives in a walker the caller owns (a batch
// worker's context, or walkerPool), so steady-state execution performs no
// heap allocation.
type execScratch struct {
	visited []openflow.TableID
	outs    []uint32
	as      actionSet

	// cur is the table the walk stands at while state is walking; res
	// is the result the walk builds, and rp its interned outcome once
	// the walk is done.
	cur   openflow.TableID
	state walkState
	res   Result
	rp    *Result

	tr flowMask // union of consulted bits (valid when traced)
	rw rewrite  // mid-walk header writes (always tracked; cheap)

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
	walkDone                     // rp is the walk's result
)

func (sc *execScratch) reset() {
	sc.visited = sc.visited[:0]
	sc.outs = sc.outs[:0]
	sc.as.clear()
	sc.rw = rewrite{}
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
		sc.res.SentToController, sc.state = true, walkEnded
		return
	}
	sc.cur, sc.state = s.order[0], walking
}

// release drops what slots 0…n−1 point at — the headers, the matched
// rules' instructions, the walks' results — so that a walker
// resting in a pool or a batch context keeps no pipeline or trace alive.
func (w *walker) release(n int) {
	n = min(n, len(w.sc))
	clear(w.g.hs[:n])
	clear(w.g.out[:n])
	for i := range w.sc[:n] {
		w.sc[i].res, w.sc[i].rp = Result{}, nil
	}
}

var walkerPool = sync.Pool{New: func() any { return new(walker) }}
