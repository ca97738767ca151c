package core

// This file holds what only the masked tier of the flow cache
// (flowcache.go) does: where its masks come from, and how its entries
// outlive a commit. The style is the OVS megaflow cache's.
//
// The exact tier only absorbs exact repeats — every new flow still pays
// the full walk. The masked tier absorbs whole regions: when a walk runs
// with tracing enabled, every lookup layer records the union of header
// bits it actually consulted (see trace.go and the backends' Lookup
// implementations), and the walk's outcome is installed under that mask.
// Any later packet agreeing with the original on the consulted bits is
// guaranteed the identical walk outcome — the mask-correctness invariant —
// so one cached entry short-circuits the traversal for, say, an entire
// /16 of new users. Traced walks produce few distinct masks (one per
// control-flow shape of the pipeline), so the tuple list a lookup probes
// stays short.
//
// Invalidation is precise where the exact tier's is wholesale, and it
// writes only what it evicts. An entry keeps the version of the walk that
// filled it; a snapshot accepts the masked entries stamped inside its
// window [mfBase, version] (snapshot.go). While the tier is armed, a
// committed transaction builds the next snapshot eagerly and, when the
// previous snapshot differs from it by the commit's rules alone, carries
// the window's base forward: every touched rule is projected onto the
// packed key space (ruleShadow), the entries in the old window that a
// rule can affect are evicted (stamped 0), and the survivors stay exactly
// as they are — all before the snapshot is published, with one version
// bump per commit. Under the tier's mutex the sweep also raises the
// tier's fill floor to the new version, so a walk that ran against the
// old snapshot and fills after the sweep fills nothing. The sweep never
// visits the exact tier, whose window is one version wide. While the
// tier's admission rule has it bypassed, a commit sweeps nothing and
// retracts the snapshot, as with the tier off: the next lookup's snapshot
// opens a fresh window, which is wholesale invalidation of a tier that
// was serving almost nothing.
//
// The sweep's cost is one cheap test per live entry plus work in
// proportion to the committed rules. For each tuple the shadows are
// compiled down to the words the tuple's mask consults (tupleSweep).
// P, the bits every shadow without a range fixes under the mask, indexes
// a small bit filter of the shadows' values under P; an entry whose key
// under P misses the filter can overlap none of them, after a load or two
// of its key. Filter hits get the exact test on the compiled shadows,
// shadows with a range check get overlapsMegaflow on every live entry,
// and an entry whose rewritten fields meet any shadow's fields is evicted
// before its key is loaded at all.
//
// Known limit: on pipelines that write metadata mid-walk (the routing
// pair), every churned rule matches Metadata and every cached walk
// rewrote it, so each commit still evicts the whole masked tier. Telling
// those entries apart needs the rewritten values in the slot.

// sweepFilterBits sizes a tuple's filter: one bit per hash of a shadow's
// values under P.
const sweepFilterBits = 4096

// sweepTerm is one word of a compiled shadow's fixed bits outside P: an
// overlapping entry's key word, under mask, equals val.
type sweepTerm struct {
	w         int
	mask, val uint64
}

// tupleSweep is a commit's shadows compiled for one tuple's mask. The
// shadows without a range check ("filtered") are indexed by their values
// under p; the others are kept whole.
type tupleSweep struct {
	p      flowMask // bits every filtered shadow fixes under the tuple mask
	pw     []int    // the words of p that are not zero
	filter [sweepFilterBits / 64]uint64
	// Filtered shadow i fixes pvals[i*len(pw):(i+1)*len(pw)] in p's words,
	// and terms[ends[i-1]:ends[i]] outside p.
	pvals  []uint64
	terms  []sweepTerm
	ends   []int
	ranged []*ruleShadow
}

// sweepHash folds a value under P, word by word, into a filter bit.
func sweepHash(h, v uint64) uint64 { return (h ^ v) * 0x100000001B3 }

func sweepBit(h uint64) uint64 { return internMix(h) & (sweepFilterBits - 1) }

// compile prepares ts for the tuple with mask m.
func (ts *tupleSweep) compile(shadows []ruleShadow, m *flowMask) {
	ts.pw, ts.pvals, ts.terms, ts.ends, ts.ranged = ts.pw[:0], ts.pvals[:0], ts.terms[:0], ts.ends[:0], ts.ranged[:0]
	ts.filter = [sweepFilterBits / 64]uint64{}
	first := true
	for i := range shadows {
		s := &shadows[i]
		if len(s.ranges) > 0 {
			ts.ranged = append(ts.ranged, s)
			continue
		}
		for w := range ts.p {
			if c := s.mask[w] & m[w]; first {
				ts.p[w] = c
			} else {
				ts.p[w] &= c
			}
		}
		first = false
	}
	if first {
		return // every shadow has a range: no filter
	}
	for w, b := range ts.p {
		if b != 0 {
			ts.pw = append(ts.pw, w)
		}
	}
	for i := range shadows {
		s := &shadows[i]
		if len(s.ranges) > 0 {
			continue
		}
		var h uint64
		for _, w := range ts.pw {
			v := s.val[w] & ts.p[w]
			ts.pvals = append(ts.pvals, v)
			h = sweepHash(h, v)
		}
		b := sweepBit(h)
		ts.filter[b/64] |= 1 << (b % 64)
		for w := range s.mask {
			if r := s.mask[w] & m[w] &^ ts.p[w]; r != 0 {
				ts.terms = append(ts.terms, sweepTerm{w: w, mask: r, val: s.val[w] & r})
			}
		}
		ts.ends = append(ts.ends, len(ts.terms))
	}
}

// overlaps reports whether any compiled shadow can match a packet in the
// region the entry e caches under the tuple mask m: overlapsMegaflow's
// verdict, for an entry whose rewritten fields meet no shadow's.
func (ts *tupleSweep) overlaps(e *cacheSlot, m *flowMask) bool {
	if len(ts.ends) > 0 {
		var kp [flowKeyWords]uint64
		var h uint64
		for j, w := range ts.pw {
			kp[j] = e.key[w].Load() & ts.p[w]
			h = sweepHash(h, kp[j])
		}
		if b := sweepBit(h); ts.filter[b/64]&(1<<(b%64)) != 0 && ts.termsOverlap(e, kp[:len(ts.pw)]) {
			return true
		}
	}
	if len(ts.ranged) == 0 {
		return false
	}
	var key flowMask
	for w := range key {
		key[w] = e.key[w].Load()
	}
	for _, s := range ts.ranged {
		if s.overlapsMegaflow(&key, m, 0) {
			return true
		}
	}
	return false
}

// termsOverlap is the exact test of a filter hit: whether some filtered
// shadow fixes the values kp in p's words and its terms outside them.
func (ts *tupleSweep) termsOverlap(e *cacheSlot, kp []uint64) bool {
	start := 0
next:
	for i, end := range ts.ends {
		pv := ts.pvals[i*len(kp) : (i+1)*len(kp)]
		terms := ts.terms[start:end]
		start = end
		for j := range kp {
			if kp[j] != pv[j] {
				continue next
			}
		}
		for _, t := range terms {
			if e.key[t.w].Load()&t.mask != t.val {
				continue next
			}
		}
		return true
	}
	return false
}

// sweep runs a commit's precise invalidation before the snapshot stamped
// next is published: it raises the fill floor to next, and evicts every
// entry the old snapshot's window live holds that a committed rule's
// shadow overlaps. Nothing else is written. Entries outside live are dead
// already and left alone. Caller is the committing writer; installs
// serialise on mu.
func (c *flowCache) sweep(shadows []ruleShadow, live window, next uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = next
	var fields uint64
	for i := range shadows {
		fields |= shadows[i].fields
	}
	ts := &c.sw
	tuples := *c.tuples.Load()
	for t := range tuples {
		tp := &tuples[t]
		ts.compile(shadows, &tp.mask)
		for i := range tp.slots {
			e := &tp.slots[i]
			if !live.holds(e.ver.Load()) {
				continue
			}
			if e.rewritten.Load()&fields != 0 || ts.overlaps(e, &tp.mask) {
				e.evict()
			}
		}
	}
}
