package core

import (
	"fmt"

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

	// wild has bit d set while some live rule leaves field d
	// unconstrained, so the candidate walk tries Wildcard at dimension d
	// too. wildCount holds the per-dimension rule counts behind it:
	// control state, nil in a published view. wildHash[d] is
	// DimHash(d, Wildcard), immutable and shared with views.
	wild      uint32
	wildCount []int
	wildHash  []uint64
}

// newMBTBackend builds the default backend for a table configuration.
func newMBTBackend(cfg TableConfig) (*mbtBackend, error) {
	b := &mbtBackend{
		cfg:       cfg,
		searchers: make([]FieldSearcher, 0, len(cfg.Fields)),
		combos:    crossprod.MustNew(len(cfg.Fields)),
		actions:   NewActionTable(),
		wildCount: make([]int, len(cfg.Fields)),
		wildHash:  make([]uint64, len(cfg.Fields)),
	}
	for d, f := range cfg.Fields {
		b.wildHash[d] = crossprod.DimHash(d, Wildcard)
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
func (b *mbtBackend) Insert(e *openflow.FlowEntry, seq uint64) error {
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
	if err := b.combos.Insert(key, crossprod.Binding{Priority: e.Priority, Payload: actionIdx, Ref: e.Ref}, seq); err != nil {
		_ = b.actions.Release(actionIdx)
		for _, s := range b.searchers {
			_ = s.Remove(matchFor(e, s.Field()))
		}
		return fmt.Errorf("core: table %d insert: %w", b.cfg.ID, err)
	}
	b.countWildcards(key, 1)
	return nil
}

// countWildcards adds delta to the wildcard count of every dimension key
// leaves unconstrained, keeping wild in step with the counts.
func (b *mbtBackend) countWildcards(key []label.Label, delta int) {
	for d, l := range key {
		if l != Wildcard {
			continue
		}
		b.wildCount[d] += delta
		if b.wildCount[d] > 0 {
			b.wild |= 1 << uint(d)
		} else {
			b.wild &^= 1 << uint(d)
		}
	}
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
	b.countWildcards(key, -1)
	return nil
}

// Lookup implements Backend: run the parallel field searches and the
// index calculation for a group of packet headers, returning each
// member's winning flow entry's instructions. Each stage runs for every
// member before the next stage starts: the field searches (the prefix
// searcher walks its tries and probes its partition combinations for the
// whole group at once), then each member's candidate walk, which queues
// its full keys, then one group probe of every queued key, then the
// action-table reads. (A table of more than two fields, and a group of
// one, probe full keys during the walk.) A single lookup is a group of
// one.
//
// The index calculation is one depth-first walk over dimensions 0…nf−1
// (an explicit position stack: no recursion, no closures). At each
// dimension it tries that field's candidates, plus Wildcard when some
// live rule leaves the field unconstrained; it extends a prefix only
// while the combination store's stage of that length holds it
// (HasPrefix, lengths 2…nf−1), and queues full keys at the last
// dimension — the progressive combining of the paper's Fig. 1, which
// discards every key below an absent prefix. The key hash is carried
// down the walk: each step folds in one memoised candidate contribution.
// Tables of ≤2 dimensions have no stage to consult; their walk is the
// plain candidate product, probed with packed keys.
//
// The only stage that consults the header is the per-field search (the
// combination walk and action-table stages operate on labels alone), so
// handing each member's tracer to the field searchers captures every
// consulted bit: identical traced bits yield identical per-field
// candidate sets and therefore an identical winning combination.
func (b *mbtBackend) Lookup(g *lookupGroup) {
	nf := len(b.searchers)
	for _, p := range g.m {
		ls := &g.ls[p]
		ls.cands, ls.chash, ls.key = atLeast(ls.cands, nf), atLeast(ls.chash, nf), atLeast(ls.key, nf)
		for d := range nf {
			ls.cands[d] = ls.cands[d][:0]
		}
	}
	for d, s := range b.searchers {
		s.search(g, d)
	}
	g.clearProbes()
	for _, p := range g.m {
		g.out[p] = lookupOut{}
		b.walk(g, p)
	}
	g.probe(b.combos)

	// A member's probes are consecutive: settle each member's best when
	// its run ends.
	owner := int32(-1)
	var best crossprod.Binding
	var bestSeq uint64
	for i := range g.probes {
		pr := &g.probes[i]
		if !pr.OK {
			continue
		}
		if o := g.owner[i]; o != owner {
			if owner >= 0 {
				b.settle(g, owner, best)
			}
			owner, best, bestSeq = o, pr.Binding, pr.Seq
			continue
		}
		if pr.Binding.Priority > best.Priority || (pr.Binding.Priority == best.Priority && pr.Seq < bestSeq) {
			best, bestSeq = pr.Binding, pr.Seq
		}
	}
	if owner >= 0 {
		b.settle(g, owner, best)
	}
}

// walk is member p's candidate walk: it hashes and completes the
// member's candidate sets and queues every full key the walk reaches for
// the group probe. A group of one, and a table of more than two
// dimensions, probe full keys as the walk reaches them and settle the
// member here: a lone walk has no loads to overlap, and a wide table's
// walk already waits on a stage probe (HasPrefix) at every step.
func (b *mbtBackend) walk(g *lookupGroup, p int32) {
	ls := &g.ls[p]
	nf := len(b.searchers)
	hashed := nf > 2
	alone := hashed || len(g.m) == 1
	for d := range nf {
		c := ls.cands[d]
		wild := b.wild&(1<<uint(d)) != 0
		if hashed {
			ch := ls.chash[d][:0]
			for _, x := range c {
				ch = append(ch, crossprod.DimHash(d, x.Label))
			}
			if wild {
				ch = append(ch, b.wildHash[d])
			}
			ls.chash[d] = ch
		}
		if wild {
			c = append(c, Candidate{Label: Wildcard})
		}
		ls.cands[d] = c
		if len(c) == 0 {
			// Some dimension offers no label at all: no key can match.
			return
		}
	}

	// The position stack (tables cap fields at 32): pos[d] is the
	// candidate tried at depth d, hs[d] the hash of key[:d].
	var pos [32]int
	var hs [32]uint64
	cl, ch := ls.cands, ls.chash
	key := ls.key[:nf]
	combos := b.combos
	last := nf - 1
	var best crossprod.Binding
	var bestSeq uint64
	found := false
	d := 0
	for {
		if d == last {
			// Every full key under the current prefix.
			h0 := hs[d]
			for i, c := range cl[d] {
				key[d] = c.Label
				var hk uint64
				if hashed {
					hk = h0 ^ ch[d][i]
				}
				if !alone {
					g.queue(combos, key, hk, p)
					continue
				}
				if b2, seq, ok := combos.LookupSeqHash(key, hk); ok {
					if !found || b2.Priority > best.Priority || (b2.Priority == best.Priority && seq < bestSeq) {
						best, bestSeq, found = b2, seq, true
					}
				}
			}
		} else if at := pos[d]; at < len(cl[d]) {
			key[d] = cl[d][at].Label
			var hk uint64
			if hashed {
				hk = hs[d] ^ ch[d][at]
			}
			if d == 0 || combos.HasPrefix(key[:d+1], hk) {
				hs[d+1] = hk
				d++
				pos[d] = 0
			} else {
				pos[d]++
			}
			continue
		}
		// Depth d is exhausted: back up and try the next candidate there.
		if d == 0 {
			break
		}
		d--
		pos[d]++
	}
	if found {
		b.settle(g, p, best)
	}
}

// settle writes member p's outcome: the instructions of its best binding.
func (b *mbtBackend) settle(g *lookupGroup, p int32, best crossprod.Binding) {
	instrs, err := b.actions.Get(best.Payload)
	if err != nil {
		// The combination store and action table are maintained together;
		// a dangling index would be an internal invariant violation.
		return
	}
	g.out[p] = lookupOut{MatchResult{Instructions: instrs, Priority: best.Priority, Ref: best.Ref}, true}
}

// Publish implements Backend: every searcher, the combination store and
// the action table as views sharing the live pages, and the wildcard mask
// by value. The per-dimension wildcard counts are control state and stay
// behind.
func (b *mbtBackend) Publish() Backend {
	v := &mbtBackend{
		cfg:       b.cfg,
		searchers: make([]FieldSearcher, len(b.searchers)),
		combos:    b.combos.Publish(),
		actions:   b.actions.Publish(),
		wild:      b.wild,
		wildHash:  b.wildHash,
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

// memory implements Backend: the per-field searcher memories, the
// index-calculation store and the action table, named as the paper's
// synthesis report does. All three are provisioned for their high-water
// marks.
func (b *mbtBackend) memory(a *memAccount) {
	prefix := a.prefix
	for _, s := range b.searchers {
		if a.report != nil {
			a.prefix = prefix + "/" + shortFieldName(s.Field())
		}
		s.memory(a)
	}
	a.prefix = prefix
	// Index calculation: one row per stored combination key, holding the
	// per-field labels, a priority and the action index.
	if keys := b.combos.PeakKeys(); keys > 0 {
		a.add(indexMem, "index-calc", keys, b.indexWidth())
	}
	if peak := b.actions.Peak(); peak > 0 {
		a.add(actionMem, "actions", peak, memmodel.ActionEntryBits)
	}
}

// marks implements highWater: each searcher's marks in searcher order,
// then the combination store's key peak and the action table's depth.
func (b *mbtBackend) marks(dst []int) []int {
	for _, s := range b.searchers {
		dst = s.marks(dst)
	}
	return append(dst, b.combos.PeakKeys(), b.actions.Peak())
}

// restoreMarks implements highWater.
func (b *mbtBackend) restoreMarks(src []int) []int {
	for _, s := range b.searchers {
		src = s.restoreMarks(src)
	}
	b.combos.RestorePeakKeys(src[0])
	b.actions.RestorePeak(src[1])
	return src[2:]
}
