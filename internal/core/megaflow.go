package core

import (
	"sync/atomic"

	"ofmtl/internal/openflow"
)

// This file holds where the masked tier of the flow cache (flowcache.go)
// gets its masks, and how the entries of both tiers outlive a commit. The
// style is the OVS megaflow cache's.
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
// An entry outlives a commit by revalidation on read, OVS's revalidators
// moved onto the read path; both tiers follow the one rule. An entry keeps
// the version of the walk that filled it. A pure rule commit over a
// open cache window does not visit the tiers: it projects every rule it
// touched onto the packed key space (ruleShadow), compiles the shadows
// once per tuple of each tier into an immutable commitRecord, and logs
// the record in the window every later snapshot carries (snapshot.go).
// A reader takes an entry
// stamped with its snapshot's version as it stands. One stamped older,
// back to the log's horizon, is a hit only if no commit logged since the
// stamp overlaps the entry's region, tested on the key the probe has
// already loaded (spares); the reader then re-stamps it (restamp, in
// flowcache.go), so an entry is tested once per commit, by the first
// reader that meets it. A stamp older than the horizon, or older than its
// tuple (a record carries no test for a tuple learned after it), is a
// miss. So a commit costs what it wrote, not what the tiers hold. While
// no tier serves — both off, or bypassed by their admission rules — a
// commit compiles nothing and retracts the snapshot, and the next
// lookup's snapshot opens a fresh window, as does any writer that is not
// a pure rule commit.
//
// The test costs a load or two of the key plus work in proportion to the
// committed rules. For each tuple the shadows are compiled down to the
// words the tuple's mask consults (tupleCheck). P, the bits every shadow
// without a range fixes under the mask, indexes a small bit filter of the
// shadows' values under P; a key whose value under P misses the filter
// can overlap none of them. Filter hits get the exact test on the
// compiled shadows, and shadows with a range check get overlapsMegaflow.
//
// Rewritten fields. Later tables match the header as earlier tables
// rewrote it, while the entry's key holds the header as it arrived. A
// walk whose one rewrite was a single write-metadata leaves the value and
// bits it wrote in its entry (rewrite), and the test runs on two views:
// the key as it arrived and the key with the written bits in place —
// every table the walk visited saw one of the two. This is what keeps the
// routing pair's entries (table 0 writes metadata := in_port, table 1
// matches it) apart across commits. Any other rewrite, a second metadata
// write or a set-field, is judged conservatively: a rule on a rewritten
// field overlaps the entry.

// commitHorizon bounds the commits a snapshot's log records, and so the
// tests one read can make: an entry no reader met across that many
// commits is a miss.
const commitHorizon = 16

// commitRecord is one pure rule commit as readers revalidate against it:
// the version of the first snapshot built after it, the fields its rules
// constrain, and its rule shadows compiled for every tuple each tier had
// when it committed. Immutable once built.
type commitRecord struct {
	version uint64
	fields  uint64
	tiers   [numTiers]tierChecks
}

// tierChecks is a commit's shadows compiled for the tuples of one tier c,
// in tuple order.
type tierChecks struct {
	c      *flowCache
	tuples []tupleCheck
}

// newCommitRecord compiles a commit's shadows for the tiers as they
// stand.
func newCommitRecord(version uint64, shadows []ruleShadow, tiers *[numTiers]atomic.Pointer[flowCache]) *commitRecord {
	r := &commitRecord{version: version}
	for i := range shadows {
		r.fields |= shadows[i].fields
	}
	for i := range tiers {
		c := tiers[i].Load()
		if c == nil {
			continue
		}
		tuples := *c.tuples.Load()
		tc := &r.tiers[i]
		tc.c, tc.tuples = c, make([]tupleCheck, len(tuples))
		for t := range tuples {
			tc.tuples[t].compile(shadows, &tuples[t].mask)
		}
	}
	return r
}

// spares reports whether every commit s logs after the stamp hit read
// spares the entry: one of tuple t of the tier's cache c, holding the
// probe's key mk under the tuple's mask m.
func (s *snapshot) spares(tier int, c *flowCache, t int, mk *flowKey, m *flowMask, hit *slotHit) bool {
	for _, r := range s.log[:s.nlog] {
		if r.version <= hit.v {
			break
		}
		tc := &r.tiers[tier]
		if tc.c != c || t >= len(tc.tuples) || tc.tuples[t].overlaps(mk, m, &hit.rw, r.fields) {
			return false
		}
	}
	return true
}

// metaWord is the metadata register's word of the packed key.
const metaWord = 10

// rewrite is what a walk's mid-walk header writes leave in its entry: the
// FieldIDs it mutated and, when its one mutation was a single
// write-metadata, the bits it wrote (mask) and their value (meta). mask
// is 0 for every other walk.
type rewrite struct {
	fields     uint64
	meta, mask uint64
}

// writeMetadata records a write-metadata instruction of value v under
// mask: a walk's first mutation keeps its value, and any second one makes
// the walk conservative.
func (r *rewrite) writeMetadata(v, mask uint64) {
	r.meta, r.mask = v&mask, mask
	if r.fields != 0 {
		r.meta, r.mask = 0, 0
	}
	r.fields |= rewrittenBit(openflow.FieldMetadata)
}

// setField records a set-field on f, which makes the walk conservative.
func (r *rewrite) setField(f openflow.FieldID) {
	r.fields |= rewrittenBit(f)
	r.meta, r.mask = 0, 0
}

// checkFilterBits sizes a tuple's filter: one bit per hash of a shadow's
// values under P.
const checkFilterBits = 4096

// checkTerm is one word of a compiled shadow's fixed bits outside P: an
// overlapping key's word, under mask, equals val.
type checkTerm struct {
	w         int
	mask, val uint64
}

// tupleCheck is a commit's shadows compiled for one tuple's mask. The
// shadows without a range check ("filtered") are indexed by their values
// under p; the others are kept whole.
type tupleCheck struct {
	p      flowMask // bits every filtered shadow fixes under the tuple mask
	pw     []int    // the words of p that are not zero
	filter [checkFilterBits / 64]uint64
	// Filtered shadow i fixes pvals[i*len(pw):(i+1)*len(pw)] in p's words,
	// and terms[ends[i-1]:ends[i]] outside p.
	pvals  []uint64
	terms  []checkTerm
	ends   []int
	ranged []*ruleShadow
}

// checkHash folds a value under P, word by word, into a filter bit.
func checkHash(h, v uint64) uint64 { return (h ^ v) * 0x100000001B3 }

func checkBit(h uint64) uint64 { return internMix(h) & (checkFilterBits - 1) }

// compile prepares ts for the tuple with mask m.
func (ts *tupleCheck) compile(shadows []ruleShadow, m *flowMask) {
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
			h = checkHash(h, v)
		}
		b := checkBit(h)
		ts.filter[b/64] |= 1 << (b % 64)
		for w := range s.mask {
			if r := s.mask[w] & m[w] &^ ts.p[w]; r != 0 {
				ts.terms = append(ts.terms, checkTerm{w: w, mask: r, val: s.val[w] & r})
			}
		}
		ts.ends = append(ts.ends, len(ts.terms))
	}
}

// overlaps reports whether any compiled shadow, of rules constraining
// fields, can match a packet at some table of a walk cached under the
// tuple mask m with key k and rewrites rw: overlapsMegaflow's verdict on
// the key as it arrived and, for a single metadata write, on the key with
// the written bits in place (a shadow that fixes no metadata bit sees the
// two alike).
func (ts *tupleCheck) overlaps(k *flowKey, m *flowMask, rw *rewrite, fields uint64) bool {
	if rw.mask == 0 {
		return rw.fields&fields != 0 || ts.overlapsKey(k, m)
	}
	if ts.overlapsKey(k, m) {
		return true
	}
	if fields&rewrittenBit(openflow.FieldMetadata) == 0 {
		return false
	}
	kw := *k
	kw[metaWord] = kw[metaWord]&^rw.mask | rw.meta
	return ts.overlapsKey(&kw, m)
}

// overlapsKey reports whether any compiled shadow can match a packet in
// the region key k covers under the tuple mask m.
func (ts *tupleCheck) overlapsKey(k *flowKey, m *flowMask) bool {
	if len(ts.ends) > 0 {
		var kp [flowKeyWords]uint64
		var h uint64
		for j, w := range ts.pw {
			kp[j] = k[w] & ts.p[w]
			h = checkHash(h, kp[j])
		}
		if b := checkBit(h); ts.filter[b/64]&(1<<(b%64)) != 0 && ts.termsOverlap(k, kp[:len(ts.pw)]) {
			return true
		}
	}
	for _, s := range ts.ranged {
		if s.overlapsMegaflow((*flowMask)(k), m, 0) {
			return true
		}
	}
	return false
}

// termsOverlap is the exact test of a filter hit: whether some filtered
// shadow fixes the values kp in p's words and its terms outside them.
func (ts *tupleCheck) termsOverlap(k *flowKey, kp []uint64) bool {
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
			if k[t.w]&t.mask != t.val {
				continue next
			}
		}
		return true
	}
	return false
}
