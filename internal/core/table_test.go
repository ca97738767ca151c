package core

import (
	"slices"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// mbtOf returns the table's mbt backend, for tests of mbt internals.
func mbtOf(t *testing.T, tbl *LookupTable) *mbtBackend {
	t.Helper()
	b, ok := tbl.backend.(*mbtBackend)
	if !ok {
		t.Fatalf("table runs the %s backend, not mbt", tbl.Backend())
	}
	return b
}

func aclTableConfig() TableConfig {
	return TableConfig{
		ID: 0,
		Fields: []openflow.FieldID{
			openflow.FieldIPv4Src,
			openflow.FieldIPv4Dst,
			openflow.FieldSrcPort,
			openflow.FieldDstPort,
			openflow.FieldIPProto,
		},
	}
}

// randomEntry draws a 5-tuple flow entry with mixed wildcards.
func randomEntry(rng *xrand.Source, prio int) *openflow.FlowEntry {
	e := &openflow.FlowEntry{Priority: prio}
	if rng.Float64() < 0.8 {
		plen := []int{0, 8, 16, 24, 32}[rng.Intn(5)]
		v := uint64(rng.Uint32()) & bitops.Mask64(plen, 32)
		e.Matches = append(e.Matches, openflow.Prefix(openflow.FieldIPv4Src, v, plen))
	}
	if rng.Float64() < 0.8 {
		plen := []int{8, 16, 24, 32}[rng.Intn(4)]
		v := uint64(rng.Uint32()) & bitops.Mask64(plen, 32)
		e.Matches = append(e.Matches, openflow.Prefix(openflow.FieldIPv4Dst, v, plen))
	}
	if rng.Float64() < 0.5 {
		lo := uint64(rng.Intn(60000))
		e.Matches = append(e.Matches, openflow.Range(openflow.FieldDstPort, lo, lo+uint64(rng.Intn(1000))))
	}
	if rng.Float64() < 0.3 {
		p := uint64(rng.Intn(1024))
		e.Matches = append(e.Matches, openflow.Range(openflow.FieldSrcPort, p, p))
	}
	if rng.Float64() < 0.4 {
		e.Matches = append(e.Matches, openflow.Exact(openflow.FieldIPProto, uint64([]int{1, 6, 17}[rng.Intn(3)])))
	}
	e.Instructions = []openflow.Instruction{
		openflow.WriteActions(openflow.Output(uint32(rng.Intn(64) + 1))),
	}
	return e
}

// randomHeader draws a probe header, biased toward values drawn from the
// rule set so hits are common.
func randomHeader(rng *xrand.Source, entries []*openflow.FlowEntry) *openflow.Header {
	h := &openflow.Header{
		IPv4Src: rng.Uint32(),
		IPv4Dst: rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		IPProto: uint8([]int{1, 6, 17, 47}[rng.Intn(4)]),
	}
	if len(entries) > 0 && rng.Float64() < 0.7 {
		// Derive the header from a random rule so it likely matches.
		e := entries[rng.Intn(len(entries))]
		for _, m := range e.Matches {
			switch m.Kind {
			case openflow.MatchPrefix:
				// Set the prefix bits, randomise the rest.
				mask := bitops.Mask64(m.PrefixLen, 32)
				v := (m.Value.Lo & mask) | (uint64(rng.Uint32()) &^ mask)
				h.Set(m.Field, bitops.U128From64(v))
			case openflow.MatchRange:
				span := m.Hi - m.Lo + 1
				h.Set(m.Field, bitops.U128From64(m.Lo+uint64(rng.Intn(int(span)))))
			case openflow.MatchExact:
				h.Set(m.Field, m.Value)
			}
		}
	}
	return h
}

// TestTableMatchesReference is the core equivalence test: the decomposed
// table must agree with the brute-force classifier on every probe.
func TestTableMatchesReference(t *testing.T) {
	rng := xrand.New(2015)
	tbl, err := NewLookupTable(aclTableConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ref ReferenceClassifier
	var entries []*openflow.FlowEntry
	for i := 0; i < 300; i++ {
		e := randomEntry(rng, i) // distinct priorities: no ties
		if err := tbl.Insert(e); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ref.Insert(e)
		entries = append(entries, e)
	}
	hits := 0
	for i := 0; i < 3000; i++ {
		h := randomHeader(rng, entries)
		got, gotOK := tbl.Classify(h)
		want, wantOK := ref.Classify(h)
		if gotOK != wantOK {
			t.Fatalf("probe %d: match disagreement: table=%v ref=%v header=%s", i, gotOK, wantOK, h)
		}
		if !gotOK {
			continue
		}
		hits++
		if got.Priority != want.Priority {
			t.Fatalf("probe %d: priority %d != %d", i, got.Priority, want.Priority)
		}
	}
	if hits == 0 {
		t.Error("no probe hit any rule")
	}
}

// TestTableRemovalMatchesReference: after removing half the rules the
// table must still agree with the reference.
func TestTableRemovalMatchesReference(t *testing.T) {
	rng := xrand.New(99)
	tbl, err := NewLookupTable(aclTableConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ref ReferenceClassifier
	var entries []*openflow.FlowEntry
	for i := 0; i < 200; i++ {
		e := randomEntry(rng, i)
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
		ref.Insert(e)
		entries = append(entries, e)
	}
	// Remove every other rule.
	var kept []*openflow.FlowEntry
	for i, e := range entries {
		if i%2 == 0 {
			if err := tbl.Remove(e); err != nil {
				t.Fatalf("remove %d: %v", i, err)
			}
			if !ref.Remove(e) {
				t.Fatalf("reference remove %d failed", i)
			}
		} else {
			kept = append(kept, e)
		}
	}
	if tbl.Rules() != len(kept) {
		t.Fatalf("Rules = %d, want %d", tbl.Rules(), len(kept))
	}
	for i := 0; i < 2000; i++ {
		h := randomHeader(rng, kept)
		got, gotOK := tbl.Classify(h)
		want, wantOK := ref.Classify(h)
		if gotOK != wantOK {
			t.Fatalf("probe %d: match disagreement after removal", i)
		}
		if gotOK && got.Priority != want.Priority {
			t.Fatalf("probe %d: priority %d != %d after removal", i, got.Priority, want.Priority)
		}
	}
}

// TestTableFullDrain: removing every rule must leave all structures empty.
func TestTableFullDrain(t *testing.T) {
	rng := xrand.New(7)
	tbl, err := NewLookupTable(aclTableConfig())
	if err != nil {
		t.Fatal(err)
	}
	var entries []*openflow.FlowEntry
	for i := 0; i < 150; i++ {
		e := randomEntry(rng, i)
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	for i, e := range entries {
		if err := tbl.Remove(e); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if tbl.Rules() != 0 {
		t.Errorf("Rules = %d after drain", tbl.Rules())
	}
	h := randomHeader(rng, entries)
	if _, ok := tbl.Classify(h); ok {
		t.Error("drained table should miss everything")
	}
	b := mbtOf(t, tbl)
	if b.actions.Len() != 0 {
		t.Errorf("action table has %d live rows after drain", b.actions.Len())
	}
	if b.combos.Keys() != 0 {
		t.Errorf("combination store has %d keys after drain", b.combos.Keys())
	}
}

func TestTableRejectsUncoveredField(t *testing.T) {
	tbl, err := NewLookupTable(TableConfig{ID: 0, Fields: []openflow.FieldID{openflow.FieldVLANID}})
	if err != nil {
		t.Fatal(err)
	}
	e := &openflow.FlowEntry{
		Matches: []openflow.Match{openflow.Exact(openflow.FieldEthType, 0x800)},
	}
	if err := tbl.Insert(e); err == nil {
		t.Error("insert with uncovered field should error")
	}
}

func TestTableConfigValidation(t *testing.T) {
	if _, err := NewLookupTable(TableConfig{ID: 0}); err == nil {
		t.Error("table without fields should error")
	}
	if _, err := NewLookupTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldVLANID, openflow.FieldVLANID},
	}); err == nil {
		t.Error("duplicate fields should error")
	}
	if _, err := NewLookupTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldID(200)},
	}); err == nil {
		t.Error("invalid field should error")
	}
}

func TestRemoveAbsentEntry(t *testing.T) {
	tbl, err := NewLookupTable(aclTableConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	e := randomEntry(rng, 1)
	if err := tbl.Remove(e); err == nil {
		t.Error("remove from empty table should error")
	}
	if err := tbl.Insert(e); err != nil {
		t.Fatal(err)
	}
	other := randomEntry(rng, 2)
	if err := tbl.Remove(other); err == nil {
		t.Error("remove of never-inserted entry should error")
	}
	// The failed removal must not have disturbed the installed entry.
	if tbl.Rules() != 1 {
		t.Errorf("Rules = %d after failed remove", tbl.Rules())
	}
}

func TestWildcardOnlyRule(t *testing.T) {
	tbl, err := NewLookupTable(aclTableConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A match-everything rule (all fields wildcarded).
	def := &openflow.FlowEntry{
		Priority:     0,
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
	}
	if err := tbl.Insert(def); err != nil {
		t.Fatal(err)
	}
	h := &openflow.Header{IPv4Src: 1, IPv4Dst: 2, DstPort: 80}
	m, ok := tbl.Classify(h)
	if !ok || m.Priority != 0 {
		t.Errorf("default rule should match everything: %v %v", m, ok)
	}
}

func TestPatternTracking(t *testing.T) {
	tbl, err := NewLookupTable(aclTableConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := &openflow.FlowEntry{
		Priority: 2,
		Matches: []openflow.Match{
			openflow.Prefix(openflow.FieldIPv4Src, 0x0A000000, 8),
			openflow.Range(openflow.FieldDstPort, 80, 80),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
	}
	wild := &openflow.FlowEntry{
		Priority:     1,
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
	}
	if err := tbl.Insert(full); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(wild); err != nil {
		t.Fatal(err)
	}
	// Every dimension is left open by the catch-all, src (0) and dport
	// (3) by it alone.
	checkWild := func(when string, want []int) {
		t.Helper()
		b := mbtOf(t, tbl)
		if !slices.Equal(b.wildCount, want) || b.wild != 0b11111 {
			t.Errorf("%s: wildCount = %v, wild = %05b; want %v, 11111", when, b.wildCount, b.wild, want)
		}
	}
	checkWild("after inserts", []int{1, 2, 2, 1, 2})
	// Removing the constrained rule drops its counts; the wildcard rule
	// still matches everything.
	if err := tbl.Remove(full); err != nil {
		t.Fatal(err)
	}
	checkWild("after removal", []int{1, 1, 1, 1, 1})
	if m, ok := tbl.Classify(&openflow.Header{IPv4Src: 0x0A010101, DstPort: 80}); !ok || m.Priority != 1 {
		t.Errorf("wildcard rule should still match: %+v %v", m, ok)
	}
	// Over-wide tables are rejected (the pattern mask is 32 bits).
	fields := make([]openflow.FieldID, 0, 33)
	for id := openflow.FieldID(1); len(fields) < 33; id++ {
		fields = append(fields, id)
	}
	if _, err := NewLookupTable(TableConfig{ID: 1, Fields: fields}); err == nil {
		t.Error("33-field table should be rejected")
	}
}

func TestActionTableDedup(t *testing.T) {
	at := NewActionTable()
	i1 := at.Add([]openflow.Instruction{openflow.WriteActions(openflow.Output(3))})
	i2 := at.Add([]openflow.Instruction{openflow.WriteActions(openflow.Output(3))})
	i3 := at.Add([]openflow.Instruction{openflow.WriteActions(openflow.Output(4))})
	if i1 != i2 {
		t.Error("identical instruction sets should share a row")
	}
	if i1 == i3 {
		t.Error("different instruction sets must not share a row")
	}
	if at.Len() != 2 {
		t.Errorf("Len = %d, want 2", at.Len())
	}
	if err := at.Release(i1); err != nil {
		t.Fatal(err)
	}
	if at.Len() != 2 {
		t.Error("row freed while still referenced")
	}
	if err := at.Release(i2); err != nil {
		t.Fatal(err)
	}
	if at.Len() != 1 {
		t.Error("row not freed at zero refs")
	}
	if _, err := at.Get(i1); err == nil {
		t.Error("freed row should not be readable")
	}
	if err := at.Release(i1); err == nil {
		t.Error("double release should error")
	}
	// Freed slots are recycled.
	i4 := at.Add([]openflow.Instruction{openflow.WriteActions(openflow.Drop())})
	if i4 != i1 {
		t.Errorf("freed slot %d should be recycled, got %d", i1, i4)
	}
	if at.Peak() != 2 {
		t.Errorf("Peak = %d, want 2", at.Peak())
	}
}

// TestRemoveStructuralTwinRejected pins the Remove identity across
// backends: an exact-value match is a different identity from a
// full-width prefix even though the mbt searchers resolve them to the
// same stored value. Removing the twin must fail uniformly — and must
// not desync the data plane from the rule store (the non-strict delete
// afterwards still resolves and applies cleanly).
func TestRemoveStructuralTwinRejected(t *testing.T) {
	for _, kind := range BackendKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p := NewPipeline()
			// Per-kind table shape: the shape-restricted dir24 gets its
			// single-LPM-field table, and the test body matches only on
			// FieldIPv4Dst so the twin identities exist under either.
			cfg := backendTableConfig(kind)
			cfg.Backend = kind
			tbl, err := p.AddTable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			instrs := []openflow.Instruction{openflow.WriteActions(openflow.Output(7))}
			installed := &openflow.FlowEntry{
				Priority:     5,
				Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000001, 32)},
				Instructions: instrs,
			}
			if err := tbl.Insert(installed); err != nil {
				t.Fatal(err)
			}
			twin := &openflow.FlowEntry{
				Priority:     5,
				Matches:      []openflow.Match{openflow.Exact(openflow.FieldIPv4Dst, 0x0A000001)},
				Instructions: instrs,
			}
			if err := tbl.Remove(twin); err == nil {
				t.Fatal("Remove accepted a structural twin with a different canonical identity")
			}
			if tbl.Rules() != 1 || tbl.store.count != 1 {
				t.Fatalf("table desynced: rules=%d store=%d", tbl.Rules(), tbl.store.count)
			}
			// The installed rule is intact: it still classifies and a
			// non-strict delete still resolves against the store and
			// tears it down in the data plane.
			h := &openflow.Header{IPv4Dst: 0x0A000001}
			if _, ok := tbl.Classify(h); !ok {
				t.Fatal("installed rule stopped matching after rejected twin removal")
			}
			if _, err := p.Begin().Delete(0).Commit(); err != nil {
				t.Fatalf("sweep delete after rejected twin removal: %v", err)
			}
			if tbl.Rules() != 0 || tbl.store.count != 0 {
				t.Fatalf("sweep left residue: rules=%d store=%d", tbl.Rules(), tbl.store.count)
			}
		})
	}
}
