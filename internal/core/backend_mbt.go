package core

import (
	"fmt"
	"sync"

	"ofmtl/internal/bitops"
	"ofmtl/internal/crossprod"
	"ofmtl/internal/label"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// mbtBackend is the paper's architecture (Fig. 1) as a pluggable backend:
// an algorithm set of per-field searchers (partitioned multi-bit tries
// for LPM fields, hash LUTs for EM fields, elementary-interval tables for
// RM fields), the label-crossproduct index-calculation store, and the
// reference-counted action table. This was the hard-wired body of
// LookupTable before the backend API; the mechanics are unchanged.
type mbtBackend struct {
	cfg       TableConfig
	searchers []FieldSearcher
	combos    *crossprod.Table
	actions   *ActionTable

	// patterns tracks the live wildcard patterns: bit i set means field i
	// is constrained. The index calculation enumerates candidate
	// combinations per live pattern instead of the full candidate product
	// — the aggregation-pruning idea of the DCFL lineage.
	patterns map[uint32]int

	// plan is the compiled classify recipe derived from patterns. It is
	// recompiled whenever the set of live patterns changes and shared
	// (read-only) with published views, so the Lookup hot path never
	// walks the patterns map.
	plan *classifyPlan

	// scratch pools per-call Lookup buffers, keeping the hot path
	// allocation-free while allowing concurrent readers; views share the
	// live backend's pool.
	scratch *sync.Pool
}

// classifyScratch carries one Lookup call's working buffers: the
// per-field candidate sets, the combination key under composition and the
// odometer positions of the candidate enumeration.
type classifyScratch struct {
	cands [][]Candidate
	key   []label.Label
	// chash memoises each candidate's dimension-hash contribution
	// (crossprod.DimHash), computed once per Lookup call so odometer
	// steps update the key hash with two XORs instead of re-hashing.
	chash [][]uint64
}

func newClassifyScratchPool(nfields int) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &classifyScratch{
			cands: make([][]Candidate, nfields),
			key:   make([]label.Label, nfields),
			chash: make([][]uint64, nfields),
		}
	}}
}

// newMBTBackend builds the default backend for a table configuration.
func newMBTBackend(cfg TableConfig) (*mbtBackend, error) {
	b := &mbtBackend{
		cfg:       cfg,
		searchers: make([]FieldSearcher, 0, len(cfg.Fields)),
		combos:    crossprod.MustNew(len(cfg.Fields)),
		actions:   NewActionTable(),
		patterns:  make(map[uint32]int),
		scratch:   newClassifyScratchPool(len(cfg.Fields)),
	}
	b.plan = compilePlan(len(cfg.Fields), b.patterns)
	for _, f := range cfg.Fields {
		s, err := NewFieldSearcher(f)
		if err != nil {
			return nil, fmt.Errorf("core: table %d: %w", cfg.ID, err)
		}
		b.searchers = append(b.searchers, s)
	}
	return b, nil
}

// Kind implements Backend.
func (b *mbtBackend) Kind() string { return BackendMBT }

// searcher returns the searcher handling field f, if the backend has one.
func (b *mbtBackend) searcher(f openflow.FieldID) (FieldSearcher, bool) {
	for _, s := range b.searchers {
		if s.Field() == f {
			return s, true
		}
	}
	return nil, false
}

// Insert implements Backend: acquire a label per field, bind the
// combination key, reference the instruction set. A failure on any stage
// rolls back the stages already applied.
func (b *mbtBackend) Insert(e *openflow.FlowEntry) error {
	key := make([]label.Label, len(b.searchers))
	for i, s := range b.searchers {
		lab, err := s.Insert(matchFor(e, s.Field()))
		if err != nil {
			// Roll back the searchers already updated.
			for j := 0; j < i; j++ {
				_ = b.searchers[j].Remove(matchFor(e, b.searchers[j].Field()))
			}
			return fmt.Errorf("core: table %d insert: %w", b.cfg.ID, err)
		}
		key[i] = lab
	}
	actionIdx := b.actions.Add(e.Instructions)
	if err := b.combos.Insert(key, crossprod.Binding{Priority: e.Priority, Payload: actionIdx, Ref: e.Ref}); err != nil {
		_ = b.actions.Release(actionIdx)
		for _, s := range b.searchers {
			_ = s.Remove(matchFor(e, s.Field()))
		}
		return fmt.Errorf("core: table %d insert: %w", b.cfg.ID, err)
	}
	p := patternOf(key)
	b.patterns[p]++
	if b.patterns[p] == 1 {
		b.plan = compilePlan(len(b.cfg.Fields), b.patterns)
	}
	return nil
}

// patternOf computes the wildcard pattern of a combination key: bit i set
// when dimension i carries a real label.
func patternOf(key []label.Label) uint32 {
	var p uint32
	for i, l := range key {
		if l != Wildcard {
			p |= 1 << uint(i)
		}
	}
	return p
}

// Remove implements Backend.
func (b *mbtBackend) Remove(e *openflow.FlowEntry) error {
	key := make([]label.Label, len(b.searchers))
	for i, s := range b.searchers {
		lab, err := s.LabelOf(matchFor(e, s.Field()))
		if err != nil {
			return fmt.Errorf("core: table %d remove: %w", b.cfg.ID, err)
		}
		key[i] = lab
	}
	actionIdx, ok := b.actions.Find(e.Instructions)
	if !ok {
		return fmt.Errorf("core: table %d remove: instruction set not installed", b.cfg.ID)
	}
	if err := b.combos.Remove(key, crossprod.Binding{Priority: e.Priority, Payload: actionIdx, Ref: e.Ref}); err != nil {
		return fmt.Errorf("core: table %d remove: %w", b.cfg.ID, err)
	}
	for _, s := range b.searchers {
		if err := s.Remove(matchFor(e, s.Field())); err != nil {
			return fmt.Errorf("core: table %d remove: %w", b.cfg.ID, err)
		}
	}
	if err := b.actions.Release(actionIdx); err != nil {
		return fmt.Errorf("core: table %d remove: %w", b.cfg.ID, err)
	}
	p := patternOf(key)
	b.patterns[p]--
	if b.patterns[p] == 0 {
		delete(b.patterns, p)
		b.plan = compilePlan(len(b.cfg.Fields), b.patterns)
	}
	return nil
}

// Lookup implements Backend: run the parallel field searches and the
// index calculation for one packet header, returning the winning flow
// entry's instructions. Candidate combinations are enumerated per live
// wildcard pattern (so fields a pattern leaves unconstrained contribute
// no fan-out) by an iterative odometer over the compiled plan's
// constrained dimensions. The combination-key hash is maintained
// incrementally: each odometer step re-hashes only the dimension it
// changed.
//
// The only stage that consults the header is the per-field search loop
// (the combination enumeration and action-table stages operate on labels
// alone), so handing tr to each field searcher captures every consulted
// bit: identical traced bits yield identical per-field candidate sets and
// therefore an identical winning combination.
func (b *mbtBackend) Lookup(h *openflow.Header, tr *flowMask) (MatchResult, bool) {
	sc := b.scratch.Get().(*classifyScratch)
	defer b.scratch.Put(sc)
	for i, s := range b.searchers {
		sc.cands[i] = s.Search(h, sc.cands[i][:0], tr)
	}

	plan := b.plan
	nf := len(sc.key)
	if plan.useHash {
		// Memoise each candidate's dimension-hash contribution once, so
		// every odometer step below re-hashes only the dimension that
		// changed — and does so with two XORs.
		for d := 0; d < nf; d++ {
			ch := sc.chash[d][:0]
			for _, c := range sc.cands[d] {
				ch = append(ch, crossprod.DimHash(d, c.Label))
			}
			sc.chash[d] = ch
		}
	}
	best := crossprod.Binding{Priority: 0}
	var bestSeq uint64
	found := false
	key := sc.key
	combos := b.combos
	// Enumeration state, gathered per pattern into stack-local arrays so
	// the loops below run on registers and L1 instead of chasing the
	// scratch struct. Tables cap fields at 32. Declared outside the
	// pattern loop so the arrays are zeroed once per call, not per
	// pattern; every in-use entry is rewritten during gathering.
	var cl [32][]Candidate
	var ch [32][]uint64
	var pos [32]int
	for pi := range plan.pats {
		pat := &plan.pats[pi]
		nd := len(pat.dims)

		// Gather the pattern's candidate lists and their memoised hash
		// contributions. A pattern requiring a constrained field with no
		// candidate cannot match; skip it without enumerating.
		rowHash := pat.wildHash
		viable := true
		for k, d := range pat.dims {
			c := sc.cands[d]
			if len(c) == 0 {
				viable = false
				break
			}
			cl[k] = c
			pos[k] = 0
			if plan.useHash {
				ch[k] = sc.chash[d]
				rowHash ^= ch[k][0]
			}
		}
		if !viable {
			continue
		}

		// Compose the pattern's first key: the most specific candidate in
		// every constrained dimension, wildcard elsewhere. The wildcard
		// dimensions' hash contribution is precompiled into the plan;
		// rowHash already folds in candidate 0 of every constrained one.
		for d := 0; d < nf; d++ {
			key[d] = Wildcard
		}
		for k, d := range pat.dims {
			key[d] = cl[k][0].Label
		}

		if nd == 0 {
			// All-wildcard pattern: a single catch-all combination.
			if b2, seq, ok := combos.LookupSeqHash(key, rowHash); ok {
				if !found || b2.Priority > best.Priority || (b2.Priority == best.Priority && seq < bestSeq) {
					best, bestSeq, found = b2, seq, true
				}
			}
			continue
		}

		// Enumerate the candidate product in two nested odometers. The
		// head dimensions (those covered by the combination store's
		// pair-combiner stage) advance in the outer loop: each head
		// combination is vetted with one packed HasPair probe, and a pair
		// present in no stored key discards its entire tail product. The
		// last tail dimension is swept by the innermost loop; rowHash
		// tracks the key hash with every post-head dimension at candidate
		// 0, so each step re-hashes only the dimension it changed.
		nhead := pat.nhead
		ntail := nd - nhead
		var inner int
		var icl []Candidate
		var ich []uint64
		if ntail > 0 {
			inner = int(pat.dims[nd-1])
			icl = cl[nd-1]
			ich = ch[nd-1]
		}
		for {
			if !plan.useHash || combos.HasPair(key[0], key[1]) {
				switch {
				case ntail == 0:
					if b2, seq, ok := combos.LookupSeqHash(key, rowHash); ok {
						if !found || b2.Priority > best.Priority || (b2.Priority == best.Priority && seq < bestSeq) {
							best, bestSeq, found = b2, seq, true
						}
					}
				default:
					var ich0 uint64
					if plan.useHash {
						ich0 = rowHash ^ ich[0]
					}
					for {
						for p := range icl {
							key[inner] = icl[p].Label
							var h64 uint64
							if plan.useHash {
								h64 = ich0 ^ ich[p]
							}
							if b2, seq, ok := combos.LookupSeqHash(key, h64); ok {
								if !found || b2.Priority > best.Priority || (b2.Priority == best.Priority && seq < bestSeq) {
									best, bestSeq, found = b2, seq, true
								}
							}
						}
						// Advance the tail's outer dimensions; exhausted
						// ones reset (restoring key, hash and position)
						// and carry left, so the tail state is back at
						// candidate 0 when the sweep completes.
						k := nd - 2
						for k >= nhead {
							d := int(pat.dims[k])
							p := pos[k] + 1
							if p < len(cl[k]) {
								if plan.useHash {
									delta := ch[k][p-1] ^ ch[k][p]
									rowHash ^= delta
									ich0 ^= delta
								}
								pos[k] = p
								key[d] = cl[k][p].Label
								break
							}
							if pos[k] != 0 {
								if plan.useHash {
									delta := ch[k][pos[k]] ^ ch[k][0]
									rowHash ^= delta
									ich0 ^= delta
								}
								pos[k] = 0
								key[d] = cl[k][0].Label
							}
							k--
						}
						if k < nhead {
							break
						}
					}
				}
			}
			// Advance the head odometer.
			k := nhead - 1
			for k >= 0 {
				d := int(pat.dims[k])
				p := pos[k] + 1
				if p < len(cl[k]) {
					if plan.useHash {
						rowHash ^= ch[k][p-1] ^ ch[k][p]
					}
					pos[k] = p
					key[d] = cl[k][p].Label
					break
				}
				if pos[k] != 0 {
					if plan.useHash {
						rowHash ^= ch[k][pos[k]] ^ ch[k][0]
					}
					pos[k] = 0
					key[d] = cl[k][0].Label
				}
				k--
			}
			if k < 0 {
				break
			}
		}
	}
	if !found {
		return MatchResult{}, false
	}
	instrs, err := b.actions.Get(best.Payload)
	if err != nil {
		// The combination store and action table are maintained together;
		// a dangling index would be an internal invariant violation.
		return MatchResult{}, false
	}
	return MatchResult{Instructions: instrs, Priority: best.Priority, Ref: best.Ref}, true
}

// Publish implements Backend: every searcher, the combination store and
// the action table as views sharing the live pages. The wildcard-pattern
// counts are control state and stay behind; the compiled plan is
// immutable and shared.
func (b *mbtBackend) Publish() Backend {
	v := &mbtBackend{
		cfg:       b.cfg,
		searchers: make([]FieldSearcher, len(b.searchers)),
		combos:    b.combos.Publish(),
		actions:   b.actions.Publish(),
		plan:      b.plan,
		scratch:   b.scratch,
	}
	for i, s := range b.searchers {
		v.searchers[i] = s.Publish()
	}
	return v
}

// indexWidth is the bit width of one index-calculation row: the per-field
// labels, a priority and the action index.
func (b *mbtBackend) indexWidth() int {
	width := 0
	for _, s := range b.searchers {
		width += s.LabelBits()
	}
	width += 16 // priority
	width += bitops.Log2Ceil(b.actions.Peak())
	return width
}

// Stats implements Backend. The arithmetic is exactly AddMemory's, so the
// published stats and the component-level MemoryReport always agree; the
// searchers' MemoryBits fast path keeps the per-commit walk free of
// component materialisation.
func (b *mbtBackend) Stats() BackendStats {
	var st BackendStats
	for _, s := range b.searchers {
		st.SearchBits += uint64(s.MemoryBits())
	}
	if keys := b.combos.PeakKeys(); keys > 0 {
		st.IndexBits = uint64(keys * b.indexWidth())
	}
	if peak := b.actions.Peak(); peak > 0 {
		st.ActionBits = uint64(peak * memmodel.ActionEntryBits)
	}
	return st
}

// mbtCheckpoint is the mbt backend's accounting high-water state: one
// checkpoint per field searcher in searcher order, the combination
// store's key peak and the action table's provisioned depth.
type mbtCheckpoint struct {
	searchers []searcherCheckpoint
	combos    int
	actions   int
}

// AccountingCheckpoint implements Backend. The mbt memory model sizes
// its label widths, combination memory and action depth by high-water
// marks (provisioned capacity), which only ratchet up — so a rejected
// transaction's effect on them must be captured here and undone by
// RestoreAccounting.
func (b *mbtBackend) AccountingCheckpoint() BackendCheckpoint {
	cp := &mbtCheckpoint{
		searchers: make([]searcherCheckpoint, len(b.searchers)),
		combos:    b.combos.PeakKeys(),
		actions:   b.actions.Peak(),
	}
	for i, s := range b.searchers {
		cp.searchers[i] = s.(searcherAccounting).saveAccounting()
	}
	return cp
}

// RestoreAccounting implements Backend.
func (b *mbtBackend) RestoreAccounting(cp BackendCheckpoint) {
	c, ok := cp.(*mbtCheckpoint)
	if !ok || c == nil {
		return
	}
	for i, s := range b.searchers {
		s.(searcherAccounting).restoreAccounting(c.searchers[i])
	}
	b.combos.RestorePeakKeys(c.combos)
	b.actions.RestorePeak(c.actions)
}

// AddMemory implements Backend: the per-field searcher memories, the
// index-calculation store and the action table, named as the paper's
// synthesis report does.
func (b *mbtBackend) AddMemory(r *memmodel.SystemReport, prefix string) {
	for _, s := range b.searchers {
		s.AddMemory(r, fmt.Sprintf("%s/%s", prefix, shortFieldName(s.Field())))
	}
	// Index calculation: one row per stored combination key, holding the
	// per-field labels, a priority and the action index.
	if keys := b.combos.PeakKeys(); keys > 0 {
		r.Add(prefix+"/index-calc", keys, b.indexWidth())
	}
	if b.actions.Peak() > 0 {
		r.Add(prefix+"/actions", b.actions.Peak(), memmodel.ActionEntryBits)
	}
}
