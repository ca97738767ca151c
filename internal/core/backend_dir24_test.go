package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/cow"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// lpmTableConfig is the table shape dir24 serves: exactly one 32-bit
// LPM field.
func lpmTableConfig() TableConfig {
	return TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Dst},
	}
}

// backendTableConfig returns a table shape the given backend can serve:
// the 5-field ACL table for the generic schemes, the single-LPM-field
// table for the shape-restricted dir24.
func backendTableConfig(kind string) TableConfig {
	cfg := aclTableConfig()
	if !BackendSupportsFields(kind, cfg.Fields) {
		return lpmTableConfig()
	}
	return cfg
}

// randomLPMEntry draws a single-field IPv4 destination prefix entry,
// spanning /12../24 plus the /25../32 band that lands in dir24 spill
// chunks. Shorter prefixes (and the /0 wildcard) are covered by the
// dedicated TestDIR24WildcardAndShortPrefixes — at high churn volume
// their giant slot ranges would dominate the suite's runtime.
func randomLPMEntry(rng *xrand.Source, prio int) *openflow.FlowEntry {
	plen := []int{12, 16, 20, 24, 25, 26, 28, 30, 32}[rng.Intn(9)]
	v := uint64(rng.Uint32()) & bitops.Mask64(plen, 32)
	return &openflow.FlowEntry{
		Priority: prio,
		Matches:  []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, v, plen)},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(uint32(rng.Intn(64) + 1))),
		},
	}
}

// backendEntry draws a random entry shaped for backendTableConfig(kind).
func backendEntry(kind string, rng *xrand.Source, prio int) *openflow.FlowEntry {
	if !BackendSupportsFields(kind, aclTableConfig().Fields) {
		return randomLPMEntry(rng, prio)
	}
	return randomEntry(rng, prio)
}

// TestDIR24LPMWinnerSemantics pins the workload encoding the scheme
// exists for: priorities equal to prefix lengths make dir24 a
// longest-prefix matcher, including inside one spilled slot.
func TestDIR24LPMWinnerSemantics(t *testing.T) {
	cfg := lpmTableConfig()
	cfg.Backend = BackendDIR24
	tbl, err := NewLookupTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	add := func(v uint64, plen int, out uint32) {
		t.Helper()
		e := &openflow.FlowEntry{
			Priority:     plen,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, v, plen)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(out))},
		}
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	add(0x0A000000, 8, 1)  // 10/8
	add(0x0A010000, 16, 2) // 10.1/16
	add(0x0A010200, 24, 3) // 10.1.2/24
	add(0x0A010280, 25, 4) // 10.1.2.128/25 — spills the slot
	add(0x0A010203, 32, 5) // 10.1.2.3/32

	want := map[uint32]uint32{
		0x0B000000: 0, // no cover
		0x0A400000: 1, // /8 only
		0x0A01FF00: 2, // /16
		0x0A010255: 3, // /24, low half of the spilled slot
		0x0A010290: 4, // /25 upper half
		0x0A010203: 5, // exact /32
	}
	for dst, out := range want {
		res, ok := tbl.Classify(&openflow.Header{IPv4Dst: dst})
		if out == 0 {
			if ok {
				t.Fatalf("dst %08x: matched %+v, want miss", dst, res)
			}
			continue
		}
		if !ok || len(res.Instructions) == 0 {
			t.Fatalf("dst %08x: no match, want output %d", dst, out)
		}
		got := res.Instructions[0].Actions[0].Port
		if got != out {
			t.Fatalf("dst %08x: output %d, want %d", dst, got, out)
		}
	}
}

// TestDIR24WildcardAndShortPrefixes covers the giant-range end the
// randomized suites avoid for runtime: the /0 wildcard (all 2^24 slots)
// and /8s, their tie-breaks against specific prefixes, and the repaint
// on their removal.
func TestDIR24WildcardAndShortPrefixes(t *testing.T) {
	cfg := lpmTableConfig()
	cfg.Backend = BackendDIR24
	tbl, err := NewLookupTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(v uint64, plen, prio int, out uint32) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority:     prio,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, v, plen)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(out))},
		}
	}
	wild := entry(0, 0, 1, 100)
	eight := entry(0x0A000000, 8, 8, 101)
	deep := entry(0x0A010203, 32, 32, 102)
	for _, e := range []*openflow.FlowEntry{wild, eight, deep} {
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	out := func(dst uint32) uint32 {
		t.Helper()
		res, ok := tbl.Classify(&openflow.Header{IPv4Dst: dst})
		if !ok {
			return 0
		}
		return res.Instructions[0].Actions[0].Port
	}
	if got := out(0xC0A80101); got != 100 {
		t.Fatalf("uncovered dst → %d, want the /0 (100)", got)
	}
	if got := out(0x0AFFFFFF); got != 101 {
		t.Fatalf("10/8 dst → %d, want the /8 (101)", got)
	}
	if got := out(0x0A010203); got != 102 {
		t.Fatalf("exact dst → %d, want the /32 (102)", got)
	}
	// Removing the /8 drops its range back to the wildcard; removing the
	// wildcard leaves only the /32.
	if err := tbl.Remove(eight); err != nil {
		t.Fatal(err)
	}
	if got := out(0x0AFFFFFF); got != 100 {
		t.Fatalf("10/8 dst after /8 removal → %d, want the /0 (100)", got)
	}
	if err := tbl.Remove(wild); err != nil {
		t.Fatal(err)
	}
	if got := out(0xC0A80101); got != 0 {
		t.Fatalf("uncovered dst after /0 removal → %d, want miss", got)
	}
	if got := out(0x0A010203); got != 102 {
		t.Fatalf("exact dst after removals → %d, want the /32 (102)", got)
	}
	if tbl.Rules() != 1 {
		t.Fatalf("rules = %d, want 1", tbl.Rules())
	}
}

// TestDIR24SpillLifecycle pins the spill-chunk state machine and its
// accounting: a slot spills when its first >/24 prefix arrives, the
// chunk is billed in IndexBits while live, and it collapses back to a
// direct slot — bits returned — when the last long prefix leaves.
func TestDIR24SpillLifecycle(t *testing.T) {
	cfg := lpmTableConfig()
	cfg.Backend = BackendDIR24
	tbl, err := NewLookupTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := tbl.backend.(*dir24Backend)
	entry := func(v uint64, plen, prio int) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority:     prio,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, v, plen)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(9))},
		}
	}
	short := entry(0x0A010200, 24, 24)
	long1 := entry(0x0A010203, 32, 32)
	long2 := entry(0x0A010280, 25, 25)
	other := entry(0x0B000001, 32, 32)

	if err := tbl.Insert(short); err != nil {
		t.Fatal(err)
	}
	if b.Spills() != 0 || statsOf(b).IndexBits != 0 {
		t.Fatalf("short prefix spilled: %d chunks, %d bits", b.Spills(), statsOf(b).IndexBits)
	}
	for _, e := range []*openflow.FlowEntry{long1, long2, other} {
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// long1 and long2 share one slot; other claims a second.
	if b.Spills() != 2 {
		t.Fatalf("spill chunks = %d, want 2", b.Spills())
	}
	if got, want := statsOf(b).IndexBits, uint64(2*dir24SpillSlots*dir24SlotBits); got != want {
		t.Fatalf("IndexBits = %d, want %d", got, want)
	}
	// Removing one of two longs keeps the shared chunk; removing the
	// second collapses it.
	if err := tbl.Remove(long1); err != nil {
		t.Fatal(err)
	}
	if b.Spills() != 2 {
		t.Fatalf("spill chunks = %d after partial remove, want 2", b.Spills())
	}
	// The shorter /24 winner resurfaces on the vacated addresses.
	if res, ok := tbl.Classify(&openflow.Header{IPv4Dst: 0x0A010203}); !ok || res.Priority != 24 {
		t.Fatalf("vacated address: got %+v ok=%v, want the /24 at priority 24", res, ok)
	}
	if err := tbl.Remove(long2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove(other); err != nil {
		t.Fatal(err)
	}
	if b.Spills() != 0 || statsOf(b).IndexBits != 0 {
		t.Fatalf("spills survived their last long prefix: %d chunks, %d bits", b.Spills(), statsOf(b).IndexBits)
	}
	// The constant array bill and the remaining rule's action row are
	// all that is left.
	if got, want := statsOf(b).TotalBits(), uint64(dir24Slots*dir24SlotBits)+32; got != want {
		t.Fatalf("TotalBits = %d, want %d", got, want)
	}
}

// TestDIR24CloneIsolation (the name predates views) pins the page-sharing
// contract deterministically (the racing version is
// TestBackendCloneIsolationUnderChurn): a view published mid-history
// keeps classifying the capture-time rule set while the live backend
// churns on, in both the direct-array and spill paths; the live backend
// is unaffected by the view being dropped; and no published page is ever
// written (the seals).
func TestDIR24CloneIsolation(t *testing.T) {
	cow.SealForTest(t)
	cfg := lpmTableConfig()
	cfg.Backend = BackendDIR24
	b, err := newDIR24Backend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	var live []*openflow.FlowEntry
	for i := 0; i < 200; i++ {
		e := randomLPMEntry(rng, 1+rng.Intn(6))
		if err := b.Insert(e, uint64(i)); err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
	}
	snap := b.Publish()
	var probes []*openflow.Header
	want := make([]MatchResult, 0, 256)
	wantOK := make([]bool, 0, 256)
	for i := 0; i < 256; i++ {
		h := randomHeader(rng, live)
		res, ok := new(lookupGroup).lookupOne(snap, h, nil)
		probes = append(probes, h)
		want = append(want, res)
		wantOK = append(wantOK, ok)
	}
	// Churn the live side hard, publishing as a pipeline would: remove
	// everything, insert a fresh set.
	for i, e := range live {
		if err := b.Remove(e); err != nil {
			t.Fatal(err)
		}
		if i%40 == 0 {
			b.Publish()
		}
	}
	var fresh []*openflow.FlowEntry
	for i := 0; i < 200; i++ {
		e := randomLPMEntry(rng, 1+rng.Intn(6))
		if err := b.Insert(e, uint64(200+i)); err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, e)
	}
	for i, h := range probes {
		res, ok := new(lookupGroup).lookupOne(snap, h, nil)
		if ok != wantOK[i] || !reflect.DeepEqual(res, want[i]) {
			t.Fatalf("probe %d drifted after source churn: got %+v ok=%v, want %+v ok=%v", i, res, ok, want[i], wantOK[i])
		}
	}
	if got, want := statsOf(snap).ActionBits, uint64(len(live)*memmodel.ActionEntryBits); got != want {
		t.Fatalf("view accounting drifted: %d action bits, want %d", got, want)
	}
	// Drop the view: the live backend still answers for the fresh set.
	snap = nil
	runtime.GC()
	var ref ReferenceClassifier
	for _, e := range fresh {
		ref.Insert(e)
	}
	for i := 0; i < 256; i++ {
		h := randomHeader(rng, fresh)
		got, ok := new(lookupGroup).lookupOne(b, h, nil)
		wantEntry, wantOK := ref.Classify(h)
		if ok != wantOK || (ok && (got.Priority != wantEntry.Priority || !reflect.DeepEqual(got.Instructions, wantEntry.Instructions))) {
			t.Fatalf("live lookup after dropping the view: got %+v ok=%v, want %+v ok=%v", got, ok, wantEntry, wantOK)
		}
	}
}

// TestDIR24RejectsNonPrefixTable pins the shape restriction at config
// time: an explicit dir24 pin on any table that is not exactly one
// 32-bit LPM field fails with an error naming the requirement, before
// any insert.
func TestDIR24RejectsNonPrefixTable(t *testing.T) {
	bad := []TableConfig{
		aclTableConfig(),
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldEthDst}},                         // 48-bit EM
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv6Dst}},                        // 128-bit LPM
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Src, openflow.FieldIPv4Dst}}, // two LPM fields
	}
	for _, cfg := range bad {
		cfg.Backend = BackendDIR24
		if _, err := NewLookupTable(cfg); err == nil {
			t.Fatalf("dir24 accepted unsupported fields %v", cfg.Fields)
		} else if !strings.Contains(err.Error(), "longest-prefix-match") {
			t.Fatalf("rejection error %q does not name the shape requirement", err)
		}
	}
	// All four 32-bit LPM fields are accepted.
	for _, f := range []openflow.FieldID{openflow.FieldIPv4Src, openflow.FieldIPv4Dst, openflow.FieldARPSPA, openflow.FieldARPTPA} {
		cfg := TableConfig{ID: 0, Fields: []openflow.FieldID{f}, Backend: BackendDIR24}
		if _, err := NewLookupTable(cfg); err != nil {
			t.Fatalf("dir24 rejected %s: %v", f, err)
		}
	}
}

// TestDIR24DefaultFallback pins the advisory-default semantics: a
// process-wide dir24 default serves the tables it can and silently
// falls back to mbt on the rest, while an explicit per-table pin stays
// a hard config-time error.
func TestDIR24DefaultFallback(t *testing.T) {
	p := NewPipeline()
	if err := p.SetDefaultBackend(BackendDIR24); err != nil {
		t.Fatal(err)
	}
	acl, err := p.AddTable(aclTableConfig())
	if err != nil {
		t.Fatalf("dir24 default failed an unsupported table instead of falling back: %v", err)
	}
	if acl.Backend() != BackendMBT {
		t.Fatalf("unsupported table backend = %s under dir24 default, want mbt fallback", acl.Backend())
	}
	lpmCfg := lpmTableConfig()
	lpmCfg.ID = 1
	lpm, err := p.AddTable(lpmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if lpm.Backend() != BackendDIR24 {
		t.Fatalf("LPM table backend = %s under dir24 default, want dir24", lpm.Backend())
	}
	// The published accounting names each table's actual scheme.
	st := p.MemoryStats()
	if st.Tables[0].Backend != BackendMBT || st.Tables[1].Backend != BackendDIR24 {
		t.Fatalf("published backends = %s/%s, want mbt/dir24", st.Tables[0].Backend, st.Tables[1].Backend)
	}
	// An explicit pin on the same shape still errors.
	pinned := aclTableConfig()
	pinned.ID = 2
	pinned.Backend = BackendDIR24
	if _, err := p.AddTable(pinned); err == nil {
		t.Fatal("explicit dir24 pin on an unsupported table succeeded")
	}
}

// TestDIR24BudgetRejectsGrowth is the dir24 arm of the admission-control
// test (the generic-backend arm runs a table shape dir24 cannot serve):
// a commit growing a budgeted dir24 table past its limit is rejected
// whole and the published accounting stays byte-identical. The budget
// sits just above the scheme's large constant array bill, so admission
// rides on the incremental per-rule bits like any other backend.
func TestDIR24BudgetRejectsGrowth(t *testing.T) {
	p := NewPipeline()
	cfg := lpmTableConfig()
	cfg.Backend = BackendDIR24
	if _, err := p.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	lpmEntry := func(i int) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority:     i + 1,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(0x0A000000+i), 32)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(i + 1)))},
		}
	}
	tx := p.Begin()
	for i := 0; i < 8; i++ {
		tx.Add(0, lpmEntry(i))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	used := p.MemoryStats().TotalBits
	if used <= dir24Slots*dir24SlotBits {
		t.Fatalf("8 rules accounted as %d bits, want more than the bare array", used)
	}
	if err := p.SetTableBudget(0, used+1); err != nil {
		t.Fatal(err)
	}
	p.Refresh()
	pre := p.MemoryStats()
	preRules := p.Rules()

	tx = p.Begin()
	for i := 8; i < 40; i++ {
		tx.Add(0, lpmEntry(i))
	}
	_, err := tx.Commit()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("over-budget commit returned %v, want *BudgetError", err)
	}
	if be.Process || be.Table != 0 || be.BudgetBits != used+1 || be.UsedBits <= be.BudgetBits {
		t.Fatalf("BudgetError = %+v, want table 0 over %d", be, used+1)
	}
	if got := p.Rules(); got != preRules {
		t.Fatalf("rules = %d after rejection, want %d (rollback)", got, preRules)
	}
	if post := p.MemoryStats(); !reflect.DeepEqual(pre, post) {
		t.Fatalf("MemoryStats changed across a rejected commit:\npre:  %+v\npost: %+v", pre, post)
	}
}
