package core

import (
	"reflect"
	"slices"
	"sort"

	"ofmtl/internal/openflow"
)

// ruleStore is a table's control-plane view of its installed flow entries:
// the canonical rule copies the transactional API (tx.go) resolves
// non-strict modify/delete commands against. The data-plane structures
// (searchers, combination store, action table) carry no reverse mapping
// from stored state back to rules, so the store is what makes match-based
// commands possible; it is bookkeeping only and contributes nothing to the
// modelled memory report.
//
// Rules are bucketed by a hash of their strict identity (priority +
// canonical match set), so add-replace and delete-strict resolve without
// scanning the table, while non-strict selection walks all buckets and
// orders the hits by installation sequence for deterministic resolution.
type ruleStore struct {
	nextSeq uint64
	buckets map[uint64][]*storedRule
	count   int
}

// storedRule is one installed flow entry: a canonical deep copy (matches
// sorted by field, explicit wildcards dropped, prefix host bits masked)
// that shares no memory with the caller's entry, plus the installation
// sequence number used for deterministic ordering.
type storedRule struct {
	seq   uint64
	hash  uint64
	entry openflow.FlowEntry
}

// canonicalEntry deep-copies e into canonical form: explicit wildcard
// matches are dropped (absent and explicit Any constrain identically),
// the remaining matches are sorted by field with prefix host bits masked,
// and instructions (with their action slices) are copied so the stored
// rule shares no memory with the caller — decoders may reuse their
// buffers immediately after Insert returns.
func canonicalEntry(e *openflow.FlowEntry) openflow.FlowEntry {
	cp := *e
	cp.Matches = make([]openflow.Match, 0, len(e.Matches))
	for _, m := range e.Matches {
		if m.Kind == openflow.MatchAny {
			continue
		}
		cp.Matches = append(cp.Matches, m.Canon())
	}
	sort.Slice(cp.Matches, func(i, j int) bool { return cp.Matches[i].Field < cp.Matches[j].Field })
	if e.Instructions != nil {
		cp.Instructions = make([]openflow.Instruction, len(e.Instructions))
		for i, in := range e.Instructions {
			cp.Instructions[i] = in
			if len(in.Actions) > 0 {
				cp.Instructions[i].Actions = append([]openflow.Action(nil), in.Actions...)
			} else {
				// Canonicalise empty action lists to nil so structural
				// equality cannot distinguish nil from empty.
				cp.Instructions[i].Actions = nil
			}
		}
	}
	return cp
}

// strictHash hashes a rule's strict identity — priority plus canonical
// match set — with FNV-1a.
func strictHash(priority int, canon []openflow.Match) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime64
		}
	}
	mix(uint64(int64(priority)))
	for _, m := range canon {
		mix(uint64(m.Field)<<8 | uint64(m.Kind))
		mix(m.Value.Hi)
		mix(m.Value.Lo)
		mix(uint64(m.PrefixLen))
		mix(m.Lo)
		mix(m.Hi)
	}
	return h
}

// matchesEqual compares two canonical match sets structurally.
func matchesEqual(a, b []openflow.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// add stores a canonical copy of the entry and returns the stored rule.
func (rs *ruleStore) add(e *openflow.FlowEntry) *storedRule {
	if rs.buckets == nil {
		rs.buckets = make(map[uint64][]*storedRule)
	}
	sr := &storedRule{seq: rs.nextSeq, entry: canonicalEntry(e)}
	sr.hash = strictHash(sr.entry.Priority, sr.entry.Matches)
	rs.nextSeq++
	rs.buckets[sr.hash] = append(rs.buckets[sr.hash], sr)
	rs.count++
	return sr
}

// findExact returns the stored rule whose priority, canonical match set
// and instructions all equal the canonical entry's — the single-entry
// Remove identity — or nil.
func (rs *ruleStore) findExact(canon *openflow.FlowEntry) *storedRule {
	for _, sr := range rs.buckets[strictHash(canon.Priority, canon.Matches)] {
		if sr.entry.Priority == canon.Priority &&
			matchesEqual(sr.entry.Matches, canon.Matches) &&
			reflect.DeepEqual(sr.entry.Instructions, canon.Instructions) {
			return sr
		}
	}
	return nil
}

// remove unlinks a specific stored rule (by identity).
func (rs *ruleStore) remove(target *storedRule) {
	b := slices.DeleteFunc(rs.buckets[target.hash], func(sr *storedRule) bool { return sr == target })
	if len(b) == 0 {
		delete(rs.buckets, target.hash)
	} else {
		rs.buckets[target.hash] = b
	}
	rs.count--
}

// relink puts back a rule remove took out, keeping its sequence number
// and its bucket's ascending sequence order.
func (rs *ruleStore) relink(sr *storedRule) {
	b := rs.buckets[sr.hash]
	i := sort.Search(len(b), func(i int) bool { return b[i].seq > sr.seq })
	rs.buckets[sr.hash] = slices.Insert(b, i, sr)
	rs.count++
}

// strictSelect returns the stored rules whose strict identity (priority +
// canonical match set) equals the entry's and that pass the cookie
// filter, in installation order — add appends, remove preserves order
// and relink inserts in place, so a bucket scan yields ascending seq.
// Instructions play no role — OpenFlow strict matching identifies an
// entry by match and priority alone.
func (rs *ruleStore) strictSelect(e *openflow.FlowEntry, cookie, mask uint64) []*storedRule {
	canon := canonicalEntry(e)
	h := strictHash(canon.Priority, canon.Matches)
	var out []*storedRule
	for _, sr := range rs.buckets[h] {
		if sr.entry.Priority == canon.Priority &&
			matchesEqual(sr.entry.Matches, canon.Matches) &&
			sr.entry.CookieSelectedBy(cookie, mask) {
			out = append(out, sr)
		}
	}
	return out
}

// nonStrictSelect returns the stored rules selected by the OpenFlow
// non-strict matching rule — every selector field subsumes the rule's
// constraint — and the cookie filter, ordered by installation sequence so
// resolution is deterministic. Priority is ignored, per the spec.
func (rs *ruleStore) nonStrictSelect(sel []openflow.Match, cookie, mask uint64) []*storedRule {
	var out []*storedRule
	for _, b := range rs.buckets {
		for _, sr := range b {
			if sr.entry.CookieSelectedBy(cookie, mask) && sr.entry.SelectedBy(sel) {
				out = append(out, sr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
