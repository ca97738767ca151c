package core

import (
	"fmt"
	"sort"

	"ofmtl/internal/crossprod"
	"ofmtl/internal/label"
	"ofmtl/internal/mbt"
	"ofmtl/internal/openflow"
)

// This file defines the pluggable per-table lookup backend API.
//
// The paper's central observation is that memory cost depends on the
// lookup scheme chosen per table: the same rule set costs very different
// bit counts under a label-compressed multi-bit-trie architecture, a
// tuple-space hash search, or a TCAM-style ternary array. Earlier PRs
// hard-wired the first scheme into every LookupTable and left the others
// as offline estimators in internal/baseline; this API makes the scheme a
// per-table runtime decision so the Table III/IV comparison can be
// reproduced on a live switch.
//
// A Backend owns a table's data-plane state: it installs and uninstalls
// canonical flow entries, classifies packet headers, publishes immutable
// views of itself for the pipeline's RCU snapshots, and states the
// modelled memory its structures occupy. The LookupTable keeps everything
// scheme-independent — configuration, the control-plane rule store the
// transactional API resolves against, its mutation counter and view, and the
// published memory-stats pointer — and delegates the rest.

// Backend kind names, the values TableConfig.Backend, the switchd
// -backend flag, pipeline-config "backend" properties and flowtext
// table-options lines accept.
const (
	// BackendMBT is the default scheme: the paper's architecture of
	// per-field searchers (partitioned multi-bit tries, hash LUTs,
	// elementary-interval range tables) feeding a label crossproduct
	// index-calculation stage and a shared action table.
	BackendMBT = "mbt"
	// BackendTSS is tuple space search (the paper's reference [12]):
	// rules grouped by their per-field mask tuple, one exact-match hash
	// table per tuple, a linear spill list for non-hashable ranges.
	BackendTSS = "tss"
	// BackendLinearTCAM is the TCAM cost model: a priority-ordered
	// ternary array searched linearly in software (hardware compares all
	// rows in parallel), with range matches expanded into prefix sets.
	BackendLinearTCAM = "lineartcam"
	// BackendDIR24 is the DIR-24-8 dense-array LPM scheme: a 2^24-slot
	// direct array indexed by the top 24 address bits plus 256-entry
	// spill chunks for longer prefixes — O(1) lookups bought with a
	// large constant array bill. Shape-restricted: it serves only
	// tables whose field set is exactly one 32-bit LPM field (see
	// BackendSupportsFields).
	BackendDIR24 = "dir24"
	// BackendAuto is the self-tuning pseudo-kind: the table starts on
	// mbt and the autotune advisor (see autotune.go) migrates it live
	// between the concrete schemes as the rule set's shape, and with it
	// the modelled lookup cost and memory, evolves. It is accepted by every selection surface but is
	// never a concrete Backend — TableMemory always reports the
	// incumbent scheme actually serving lookups.
	BackendAuto = "auto"
)

// BackendKinds returns the recognised concrete backend kind names,
// sorted. The "auto" pseudo-kind is deliberately absent: it is a
// selection-surface value, not a scheme a table can report running.
func BackendKinds() []string {
	return []string{BackendDIR24, BackendLinearTCAM, BackendMBT, BackendTSS}
}

// ValidBackend reports whether kind names a registered backend — the
// membership test behind every selection surface (flags, configs,
// SetDefaultBackend). The "auto" pseudo-kind is valid everywhere a
// selection is made.
func ValidBackend(kind string) bool {
	switch kind {
	case BackendMBT, BackendTSS, BackendLinearTCAM, BackendDIR24, BackendAuto:
		return true
	default:
		return false
	}
}

// BackendSupportsFields reports whether the named backend can serve a
// table with the given field set. The generic schemes (mbt, tss,
// lineartcam) serve any field set; dir24 requires exactly one 32-bit
// longest-prefix-match field. Selection surfaces that apply a
// process-wide default (SetDefaultBackend, switchd -backend) consult
// this to fall back to mbt on unsupported tables;
// an explicit per-table pin skips the check and fails at config time
// instead.
// The "auto" pseudo-kind serves any field set: its advisor only ever
// selects concrete schemes that pass this same check.
func BackendSupportsFields(kind string, fields []openflow.FieldID) bool {
	if kind == BackendDIR24 {
		return dir24SupportsFields(fields)
	}
	return true
}

// Backend is one table's lookup scheme: the data-plane structures behind
// a LookupTable. Implementations are not safe for concurrent mutation —
// the pipeline serialises Insert/Remove under its write lock — but a
// published view must serve any number of concurrent Lookup calls while
// the original keeps taking updates (the RCU snapshot contract).
type Backend interface {
	// Kind returns the backend's registered kind name.
	Kind() string
	// Insert installs a canonical flow entry (matches sorted and masked,
	// instruction slices immutable once installed) with its install
	// sequence: among equal priorities the lower seq wins. The table
	// passes its rule store's sequence, so a rule keeps its place through
	// migrations and rolled-back removals. A failed insert must leave the
	// backend unchanged, its high-water marks aside (the failed commit puts
	// those back).
	Insert(e *openflow.FlowEntry, seq uint64) error
	// Remove uninstalls the entry previously installed with the same
	// canonical matches, priority and instructions; removing an absent
	// entry is an error and must leave the backend unchanged.
	Remove(e *openflow.FlowEntry) error
	// Lookup classifies the headers of g's members (g.m), each into its
	// own result slot (g.out) with its own scratch (g.ls), returning for
	// each the winning entry's instructions and priority. Ties on priority
	// resolve to the lowest install sequence. A single lookup is a group of
	// one (lookupGroup.lookupOne). Lookup must be safe for concurrent
	// callers on a published view; g is used by one caller at a time, and
	// the backend keeps no working state of its own. A member's non-nil
	// ls.tr asks for consulted-bits accounting for the megaflow tier: the
	// backend must mark in it every header bit whose value could change
	// that member's outcome, so that any header agreeing with it on the
	// marked bits is guaranteed the identical MatchResult. Over-marking is
	// safe; under-marking caches wrong results.
	Lookup(g *lookupGroup)
	// Publish returns an immutable view of the backend as it stands,
	// serving Lookup and memory; later updates to the original never show
	// in it. What it costs is the backend's business — mbt and dir24 share
	// their storage page by page with the view and copy what a later write
	// touches, tss and lineartcam copy one pointer per rule — but calling
	// Insert or Remove on a view is a bug and may panic.
	Publish() Backend
	// memory states the backend's modelled memory (see memory.go): the one
	// statement behind the published stats, the budgets and MemoryReport.
	// It runs after every commit, so it walks no per-rule structure.
	// A backend whose statement reads high-water marks also implements
	// highWater, so a rejected commit can put them back.
	memory(a *memAccount)
}

// lookupScratch is one packet's working state through a table lookup: the
// field searches and the index calculation of Fig. 1. It lives in the
// packet's slot of a lookupGroup, which the walk's caller owns (a batch
// worker's context, or a pooled walker), so a lookup touches no pool. Its
// buffers grow to the widest table and the most partitions they meet and
// serve every table one walk visits.
type lookupScratch struct {
	// tr is the walk's consulted-bits tracer; nil when the walk is
	// untraced.
	tr *flowMask

	// mbt: the per-field candidate sets, each candidate's memoised
	// dimension-hash contribution (crossprod.DimHash) and the combination
	// key under composition.
	cands [][]Candidate
	chash [][]uint64
	key   []label.Label

	// PrefixFieldSearcher: the per-partition trie matches and the
	// partition-combination key.
	matches [][]mbt.MatchedEntry
	pkey    []label.Label

	// tss: the probe key.
	probe []byte
}

// lookupGroup is a group of packets that one table classifies together:
// the walk's unit of lookup. Its slots are indexed by packet, and m lists
// the packets the current lookup classifies (the walks that stand at the
// table), ascending. Besides each packet's scratch it holds the buffers in
// which the mbt backend gathers one stage's work across the members — the
// trie walks and the combination probes — so that a stage's memory loads
// do not depend on each other and overlap (mbt.Trie.LookupGroup,
// crossprod.Table.LookupGroup).
type lookupGroup struct {
	hs  []*openflow.Header
	ls  []lookupScratch
	out []lookupOut
	m   []int32

	walks  []mbt.Walk
	probes []crossprod.Probe
	owner  []int32       // probes[i] is packet owner[i]'s
	keys   []label.Label // the probed keys of a table of more than two dimensions
}

// lookupOut is one packet's lookup outcome.
type lookupOut struct {
	MatchResult
	ok bool
}

// size makes room for n packets. The probe queue starts with room for
// probesPerPacket each: a queue sized by the group's busiest lookup so
// far would keep growing, rarely, long after the group is warm.
func (g *lookupGroup) size(n int) {
	g.hs, g.ls, g.out = atLeast(g.hs, n), atLeast(g.ls, n), atLeast(g.out, n)
	if cap(g.probes) < n*probesPerPacket {
		g.probes = make([]crossprod.Probe, 0, n*probesPerPacket)
		g.owner = make([]int32, 0, n*probesPerPacket)
	}
}

// probesPerPacket is the probe-queue room a lookup group reserves per
// packet: an IPv4 prefix field queues at most 34 partition probes
// (17 match lengths per partition), and its table at most 34 full keys.
const probesPerPacket = 64

// lookupOne classifies h on b as a group of one, in slot 0, traced into tr
// when it is non-nil.
func (g *lookupGroup) lookupOne(b Backend, h *openflow.Header, tr *flowMask) (MatchResult, bool) {
	g.size(1)
	g.hs[0], g.ls[0].tr = h, tr
	g.m = append(g.m[:0], 0)
	b.Lookup(g)
	return g.out[0].MatchResult, g.out[0].ok
}

// each classifies the members one at a time: the Lookup of a backend
// whose lookup has no stage worth overlapping across packets.
func (g *lookupGroup) each(lookup func(*openflow.Header, *lookupScratch) (MatchResult, bool)) {
	for _, p := range g.m {
		g.out[p].MatchResult, g.out[p].ok = lookup(g.hs[p], &g.ls[p])
	}
}

// queue adds a probe of key, whose XOR-fold hash is h, on t for packet p.
// A key of more than two labels is copied into the key arena, where the
// probe finds it.
func (g *lookupGroup) queue(t *crossprod.Table, key []label.Label, h uint64, p int32) {
	n := len(g.probes)
	if n == cap(g.probes) {
		g.probes = append(g.probes, crossprod.Probe{})
	}
	g.probes = g.probes[:n+1]
	g.probes[n].Word = t.Word(key, h)
	g.owner = append(g.owner, p)
	if len(key) > 2 {
		g.keys = append(g.keys, key...)
	}
}

// probe runs every queued probe on t and leaves the results in g.probes
// until clearProbes.
func (g *lookupGroup) probe(t *crossprod.Table) {
	t.LookupGroup(g.probes, g.keys)
}

// clearProbes empties the probe queue.
func (g *lookupGroup) clearProbes() {
	g.probes, g.owner, g.keys = g.probes[:0], g.owner[:0], g.keys[:0]
}

// atLeast returns s extended with zero values to at least n elements.
func atLeast[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// newBackend constructs the named backend for a table configuration. An
// empty kind selects mbt.
func newBackend(kind string, cfg TableConfig) (Backend, error) {
	switch kind {
	case "", BackendMBT:
		return newMBTBackend(cfg)
	case BackendTSS:
		return newTSSBackend(cfg), nil
	case BackendLinearTCAM:
		return newTCAMBackend(cfg), nil
	case BackendDIR24:
		return newDIR24Backend(cfg)
	default:
		return nil, fmt.Errorf("core: table %d: unknown backend %q (want %v)", cfg.ID, kind, BackendKinds())
	}
}

// checkFieldKinds verifies every match uses a kind the field's matching
// method supports, mirroring the acceptance rules of the mbt searchers so
// every backend rejects the same entries: EM fields take exact values (or
// full-width prefixes), LPM fields take exact values or prefixes, RM
// fields take exact values or ranges. The generic backends (tss,
// lineartcam) call this before mutating; the mbt searchers enforce it
// structurally.
func checkFieldKinds(id openflow.TableID, e *openflow.FlowEntry) error {
	for _, m := range e.Matches {
		if m.Kind == openflow.MatchAny {
			continue
		}
		width := m.Field.Bits()
		switch m.Field.Method() {
		case openflow.ExactMatch:
			if m.Kind == openflow.MatchExact || (m.Kind == openflow.MatchPrefix && m.PrefixLen == width) {
				continue
			}
			return fmt.Errorf("core: table %d: field %s requires exact matching, got %s", id, m.Field, m.Kind)
		case openflow.LongestPrefixMatch:
			if m.Kind == openflow.MatchExact || m.Kind == openflow.MatchPrefix {
				continue
			}
			return fmt.Errorf("core: table %d: field %s requires prefix matching, got %s", id, m.Field, m.Kind)
		case openflow.RangeMatch:
			if m.Kind == openflow.MatchExact || m.Kind == openflow.MatchRange {
				continue
			}
			return fmt.Errorf("core: table %d: field %s requires range matching, got %s", id, m.Field, m.Kind)
		default:
			return fmt.Errorf("core: table %d: field %s has unknown matching method", id, m.Field)
		}
	}
	return nil
}

// entryIdentityEqual reports whether two canonical entries carry the same
// removal identity: priority, match set and instruction content — the
// same identity ruleStore.removeExact keys on.
func entryIdentityEqual(a, b *openflow.FlowEntry) bool {
	if a.Priority != b.Priority || !matchesEqual(a.Matches, b.Matches) {
		return false
	}
	return instructionsEqual(a.Instructions, b.Instructions)
}

// instructionsEqual compares instruction lists structurally.
func instructionsEqual(a, b []openflow.Instruction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Type != y.Type || x.Table != y.Table ||
			x.Metadata != y.Metadata || x.MetadataMask != y.MetadataMask ||
			len(x.Actions) != len(y.Actions) {
			return false
		}
		for j := range x.Actions {
			if x.Actions[j] != y.Actions[j] {
				return false
			}
		}
	}
	return true
}

// sortedFields returns the table's configured fields sorted by ID — the
// deterministic per-field order the generic backends key their masks on.
func sortedFields(cfg TableConfig) []openflow.FieldID {
	fs := append([]openflow.FieldID(nil), cfg.Fields...)
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}
