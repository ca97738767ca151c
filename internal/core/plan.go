package core

import (
	"sort"

	"ofmtl/internal/crossprod"
)

// This file implements the compiled classify plan: the per-packet lookup
// recipe a table derives from its installed rule set at mutation time, so
// the Classify hot path does no map iteration, no recursion and no
// re-hashing of unchanged key dimensions.
//
// The mutable table keeps the live wildcard-pattern map (patterns in
// the mbt backend); an Insert or Remove that changes the set of live
// patterns recompiles the plan, and published views share the compiled
// plan pointer — plans are read-only after compilation.

// planPattern is one live wildcard pattern, pre-decoded into the list of
// constrained dimensions so the enumeration loop never scans pattern bits.
type planPattern struct {
	pattern uint32
	// dims lists the constrained dimensions in ascending order; the
	// candidate odometer spins the last listed dimension fastest.
	dims []uint8
	// nhead counts the leading entries of dims naming dimension 0 or 1 —
	// the dimensions covered by the combination store's pair-combiner
	// stage. The enumeration advances these in its outer loop and asks
	// HasPair once per head combination, pruning the whole tail product
	// when the leading pair exists in no stored key.
	nhead int
	// wildHash is the XOR-fold hash contribution of every unconstrained
	// dimension (all of them carry the Wildcard label), precompiled so the
	// per-packet key composition hashes only the constrained dimensions.
	wildHash uint64
}

// classifyPlan is the compiled lookup recipe.
type classifyPlan struct {
	pats []planPattern
	// useHash selects incremental XOR-fold key hashing for the combination
	// probes. Tables of ≤2 dimensions use the combination store's packed
	// fast path instead, where probes derive the bucket from the key
	// itself.
	useHash bool
}

// compilePlan flattens the live wildcard-pattern map into a deterministic
// (pattern-sorted) probe schedule.
func compilePlan(nfields int, patterns map[uint32]int) *classifyPlan {
	p := &classifyPlan{
		pats:    make([]planPattern, 0, len(patterns)),
		useHash: nfields > 2,
	}
	for pattern := range patterns {
		pp := planPattern{pattern: pattern}
		for d := 0; d < nfields; d++ {
			if pattern&(1<<uint(d)) != 0 {
				pp.dims = append(pp.dims, uint8(d))
				if d < 2 {
					pp.nhead++
				}
			} else if p.useHash {
				pp.wildHash ^= crossprod.DimHash(d, Wildcard)
			}
		}
		p.pats = append(p.pats, pp)
	}
	sort.Slice(p.pats, func(i, j int) bool { return p.pats[i].pattern < p.pats[j].pattern })
	return p
}
