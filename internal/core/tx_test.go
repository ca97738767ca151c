package core

import (
	"reflect"
	"sync"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/cow"
	"ofmtl/internal/openflow"
)

// aclTxTable builds a single-table 5-tuple pipeline for transaction tests.
func aclTxTable(t *testing.T) *Pipeline {
	t.Helper()
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{
		ID: 0,
		Fields: []openflow.FieldID{
			openflow.FieldIPv4Dst,
			openflow.FieldDstPort,
			openflow.FieldIPProto,
		},
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

func txEntry(prio int, cookie uint64, out uint32, matches ...openflow.Match) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority:     prio,
		Cookie:       cookie,
		Matches:      matches,
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(out))},
	}
}

// TestTxCommitPublishesOneSnapshot pins the headline property of the
// transactional API: a 256-command commit publishes exactly one snapshot
// and bumps the microflow-cache generation exactly once, no matter how
// many commands it carries.
func TestTxCommitPublishesOneSnapshot(t *testing.T) {
	p := aclTxTable(t)
	p.SetCacheSize(1024)
	p.Refresh()
	v0 := p.SnapshotVersion()

	tx := p.Begin()
	for i := 0; i < 256; i++ {
		tx.Add(0, txEntry(i+1, 0, uint32(i),
			openflow.Exact(openflow.FieldIPv4Dst, uint64(0x0A000000+i)),
			openflow.Exact(openflow.FieldIPProto, 6)))
	}
	res, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 256 || res.Added != 256 {
		t.Fatalf("result = %+v, want 256 commands / 256 added", res)
	}
	// Without a megaflow tier publication is lazy: commit itself does
	// not bump the version.
	if got := p.SnapshotVersion(); got != v0 {
		t.Fatalf("commit published %d snapshots; want 0", got-v0)
	}
	// The first lookup after the commit rebuilds once; the cache
	// generation is the snapshot version, so this is also the single
	// cache invalidation.
	p.Execute(&openflow.Header{IPv4Dst: 0x0A000005, IPProto: 6})
	if got := p.SnapshotVersion(); got != v0+1 {
		t.Fatalf("snapshot version advanced by %d across a 256-command commit, want 1", got-v0)
	}
	if p.Rules() != 256 {
		t.Fatalf("rules = %d, want 256", p.Rules())
	}
}

// TestTxAddReplaces pins OFPFC_ADD semantics: an add displaces an
// installed entry with the same match set and priority; different
// priorities coexist.
func TestTxAddReplaces(t *testing.T) {
	p := aclTxTable(t)
	m := openflow.Exact(openflow.FieldIPv4Dst, 0x0A000001)

	if _, err := p.Begin().Add(0, txEntry(5, 1, 1, m)).Commit(); err != nil {
		t.Fatal(err)
	}
	// Same matches, same priority: replace.
	res, err := p.Begin().Add(0, txEntry(5, 2, 2, m)).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != 1 || res.Replaced != 1 {
		t.Fatalf("result = %+v, want 1 added / 1 replaced", res)
	}
	if p.Rules() != 1 {
		t.Fatalf("rules = %d, want 1 after replace", p.Rules())
	}
	if out := p.Execute(&openflow.Header{IPv4Dst: 0x0A000001}).Outputs; len(out) != 1 || out[0] != 2 {
		t.Fatalf("outputs = %v, want [2]", out)
	}
	// Same matches, different priority: coexist.
	if _, err := p.Begin().Add(0, txEntry(9, 3, 3, m)).Commit(); err != nil {
		t.Fatal(err)
	}
	if p.Rules() != 2 {
		t.Fatalf("rules = %d, want 2", p.Rules())
	}
	if out := p.Execute(&openflow.Header{IPv4Dst: 0x0A000001}).Outputs; len(out) != 1 || out[0] != 3 {
		t.Fatalf("outputs = %v, want [3] (higher priority wins)", out)
	}
}

// TestTxNonStrictDelete pins the OpenFlow non-strict selection rule on
// overlapping priorities: the selector's match subsumption decides, and
// priority plays no role.
func TestTxNonStrictDelete(t *testing.T) {
	p := aclTxTable(t)
	tx := p.Begin()
	// Three entries under 10.0.0.0/8 at different priorities, one outside.
	tx.Add(0, txEntry(1, 0, 1, openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)))
	tx.Add(0, txEntry(7, 0, 2, openflow.Prefix(openflow.FieldIPv4Dst, 0x0A010000, 16)))
	tx.Add(0, txEntry(3, 0, 3,
		openflow.Exact(openflow.FieldIPv4Dst, 0x0A010101),
		openflow.Exact(openflow.FieldIPProto, 6)))
	tx.Add(0, txEntry(5, 0, 4, openflow.Prefix(openflow.FieldIPv4Dst, 0x0B000000, 8)))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Non-strict delete of everything under 10.0.0.0/8: selects the three
	// entries at least as specific, across all priorities.
	res, err := p.Begin().
		Delete(0, openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)).
		Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 3 {
		t.Fatalf("deleted = %d, want 3", res.Deleted)
	}
	if p.Rules() != 1 {
		t.Fatalf("rules = %d, want 1", p.Rules())
	}
	if out := p.Execute(&openflow.Header{IPv4Dst: 0x0B010101}).Outputs; len(out) != 1 || out[0] != 4 {
		t.Fatalf("survivor lost: outputs = %v", out)
	}
	// Deleting nothing is a no-op, not an error.
	res, err = p.Begin().Delete(0, openflow.Exact(openflow.FieldIPv4Dst, 0x0C000001)).Commit()
	if err != nil || res.Deleted != 0 {
		t.Fatalf("empty delete: res=%+v err=%v", res, err)
	}
	// An empty match set selects the whole table.
	res, err = p.Begin().Delete(0).Commit()
	if err != nil || res.Deleted != 1 || p.Rules() != 0 {
		t.Fatalf("delete-all: res=%+v err=%v rules=%d", res, err, p.Rules())
	}
}

// TestTxDeleteStrict pins strict selection: exact match set and priority,
// with wider or narrower entries untouched.
func TestTxDeleteStrict(t *testing.T) {
	p := aclTxTable(t)
	wide := openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)
	narrow := openflow.Prefix(openflow.FieldIPv4Dst, 0x0A010000, 16)
	tx := p.Begin()
	tx.Add(0, txEntry(5, 0, 1, wide))
	tx.Add(0, txEntry(5, 0, 2, narrow))
	tx.Add(0, txEntry(7, 0, 3, narrow))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Wrong priority: strict delete selects nothing.
	res, err := p.Begin().DeleteStrict(0, 6, narrow).Commit()
	if err != nil || res.Deleted != 0 {
		t.Fatalf("strict delete with wrong priority: res=%+v err=%v", res, err)
	}
	// Exact (matches, priority): deletes exactly that entry.
	res, err = p.Begin().DeleteStrict(0, 5, narrow).Commit()
	if err != nil || res.Deleted != 1 {
		t.Fatalf("strict delete: res=%+v err=%v", res, err)
	}
	if p.Rules() != 2 {
		t.Fatalf("rules = %d, want 2", p.Rules())
	}
	if out := p.Execute(&openflow.Header{IPv4Dst: 0x0A010101}).Outputs; len(out) != 1 || out[0] != 3 {
		t.Fatalf("outputs = %v, want [3]", out)
	}
}

// TestTxModify pins OFPFC_MODIFY: instructions of every subsumed entry
// are rewritten; priority and cookie are preserved; selecting nothing is
// a no-op.
func TestTxModify(t *testing.T) {
	p := aclTxTable(t)
	tx := p.Begin()
	tx.Add(0, txEntry(5, 11, 1, openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)))
	tx.Add(0, txEntry(9, 22, 2, openflow.Prefix(openflow.FieldIPv4Dst, 0x0A010000, 16)))
	tx.Add(0, txEntry(5, 33, 3, openflow.Prefix(openflow.FieldIPv4Dst, 0x0B000000, 8)))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Rewrite everything under 10.0.0.0/8 to output 9.
	mod := &openflow.FlowEntry{
		Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(9))},
	}
	res, err := p.Begin().Modify(0, mod).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Modified != 2 {
		t.Fatalf("modified = %d, want 2", res.Modified)
	}
	// Both selected entries now output 9; the /16 keeps its higher
	// priority (it must still win inside its cover).
	if out := p.Execute(&openflow.Header{IPv4Dst: 0x0A010101}).Outputs; len(out) != 1 || out[0] != 9 {
		t.Fatalf("outputs = %v, want [9]", out)
	}
	if out := p.Execute(&openflow.Header{IPv4Dst: 0x0B010101}).Outputs; len(out) != 1 || out[0] != 3 {
		t.Fatalf("unselected entry modified: outputs = %v", out)
	}
	// Cookies survive the modify: a cookie-filtered delete still finds
	// the original cookie values.
	res, err = p.Begin().FlowMod(FlowCmd{
		Op:         CmdDelete,
		Table:      0,
		CookieMask: ^uint64(0),
		Entry:      openflow.FlowEntry{Cookie: 22},
	}).Commit()
	if err != nil || res.Deleted != 1 {
		t.Fatalf("cookie-filtered delete after modify: res=%+v err=%v", res, err)
	}
	// Modify selecting nothing: no-op.
	none := &openflow.FlowEntry{
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldIPv4Dst, 0x0C000001)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
	}
	res, err = p.Begin().Modify(0, none).Commit()
	if err != nil || res.Modified != 0 {
		t.Fatalf("empty modify: res=%+v err=%v", res, err)
	}
}

// TestTxSelectorOnUnsearchedField pins the selector semantics for fields
// a table does not search: installed entries cannot constrain such a
// field, so a selector constraining it selects nothing — modify and
// delete are clean no-ops, not errors (only Add requires coverage).
func TestTxSelectorOnUnsearchedField(t *testing.T) {
	p := aclTxTable(t)
	if _, err := p.Begin().Add(0, txEntry(1, 0, 1, openflow.Exact(openflow.FieldIPv4Dst, 9))).Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Begin().Modify(0, &openflow.FlowEntry{
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 10)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
	}).Commit()
	if err != nil {
		t.Fatalf("modify with unsearched selector field errored: %v", err)
	}
	if res.Modified != 0 {
		t.Fatalf("modified = %d, want 0", res.Modified)
	}
	res, err = p.Begin().Delete(0, openflow.Exact(openflow.FieldVLANID, 10)).Commit()
	if err != nil || res.Deleted != 0 {
		t.Fatalf("delete with unsearched selector field: res=%+v err=%v", res, err)
	}
	if p.Rules() != 1 {
		t.Fatalf("rules = %d, want 1", p.Rules())
	}
	// Add still requires coverage: the entry would be installed.
	if _, err := p.Begin().Add(0, txEntry(1, 0, 1, openflow.Exact(openflow.FieldVLANID, 10))).Commit(); err == nil {
		t.Fatal("add with uncovered field committed")
	}
}

// TestTxCookieMaskFilter pins the cookie filter on delete.
func TestTxCookieMaskFilter(t *testing.T) {
	p := aclTxTable(t)
	tx := p.Begin()
	tx.Add(0, txEntry(1, 0x10, 1, openflow.Exact(openflow.FieldIPv4Dst, 1)))
	tx.Add(0, txEntry(1, 0x11, 2, openflow.Exact(openflow.FieldIPv4Dst, 2)))
	tx.Add(0, txEntry(1, 0x20, 3, openflow.Exact(openflow.FieldIPv4Dst, 3)))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Delete all entries whose cookie has 0x10 on the 0xF0 bits: the
	// first two.
	res, err := p.Begin().FlowMod(FlowCmd{
		Op:         CmdDelete,
		Table:      0,
		CookieMask: 0xF0,
		Entry:      openflow.FlowEntry{Cookie: 0x10},
	}).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 || p.Rules() != 1 {
		t.Fatalf("cookie-masked delete: res=%+v rules=%d", res, p.Rules())
	}
}

// TestTxAtomicValidationFailure: a command that fails validation rejects
// the whole transaction and applies nothing.
func TestTxAtomicValidationFailure(t *testing.T) {
	p := aclTxTable(t)
	before := p.MemoryReport()
	tx := p.Begin()
	tx.Add(0, txEntry(1, 0, 1, openflow.Exact(openflow.FieldIPv4Dst, 7)))
	// Field the table does not search: static validation must reject.
	tx.Add(0, txEntry(1, 0, 2, openflow.Exact(openflow.FieldVLANID, 5)))
	if _, err := tx.Commit(); err == nil {
		t.Fatal("tx with uncovered field committed")
	}
	if p.Rules() != 0 {
		t.Fatalf("rejected tx applied %d rules", p.Rules())
	}
	if after := p.MemoryReport(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected tx changed the memory report:\n%v\nvs\n%v", before.Components, after.Components)
	}
	c := p.TxCounters()
	if c.Rejected != 1 || c.Txs != 0 {
		t.Fatalf("counters = %+v, want 1 rejected / 0 committed", c)
	}
}

// TestTxAtomicApplyRollback: a command that passes validation but fails
// during application (a range-field prefix is rejected by the searcher,
// not the validator) rolls back every previously applied command, and
// puts back every high-water mark those commands raised — label peaks,
// combination and action depths, the protocol LUT's grown bucket count —
// so the memory report is the pre-commit one, component for component.
func TestTxAtomicApplyRollback(t *testing.T) {
	cow.SealForTest(t)
	p := aclTxTable(t)
	if _, err := p.Begin().Add(0, txEntry(1, 0, 1, openflow.Exact(openflow.FieldIPv4Dst, 3))).Commit(); err != nil {
		t.Fatal(err)
	}
	p.Refresh()
	before := p.MemoryReport()

	tx := p.Begin()
	tx.Add(0, txEntry(2, 0, 2, openflow.Exact(openflow.FieldIPv4Dst, 4)))
	for proto := uint64(0); proto < 100; proto++ {
		tx.Add(0, txEntry(2, 0, uint32(10+proto), openflow.Exact(openflow.FieldIPProto, proto)))
	}
	tx.Delete(0, openflow.Exact(openflow.FieldIPv4Dst, 3))
	// Passes FlowEntry.Validate (a well-formed match) but the range
	// searcher rejects prefix constraints at apply time.
	tx.Add(0, txEntry(3, 0, 3, openflow.Prefix(openflow.FieldDstPort, 0, 4)))
	if _, err := tx.Commit(); err == nil {
		t.Fatal("tx with range-field prefix committed")
	}

	if p.Rules() != 1 {
		t.Fatalf("rules = %d after rollback, want 1", p.Rules())
	}
	if after := p.MemoryReport(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rollback left residue:\n--- before\n%v\n--- after\n%v", before.Components, after.Components)
	}
	if out := p.Execute(&openflow.Header{IPv4Dst: 3}).Outputs; len(out) != 1 || out[0] != 1 {
		t.Fatalf("original entry lost in rollback: %v", out)
	}
	if c := p.TxCounters(); c.Rejected != 1 {
		t.Fatalf("counters = %+v, want 1 rejected", c)
	}
}

// TestTxCommitTwice: a transaction commits at most once.
func TestTxCommitTwice(t *testing.T) {
	p := aclTxTable(t)
	tx := p.Begin().Add(0, txEntry(1, 0, 1, openflow.Exact(openflow.FieldIPv4Dst, 1)))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("second commit succeeded")
	}
	if c := p.TxCounters(); c.Txs != 1 || c.Commands != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestTxSnapshotIsolationUnderRace drives batched commits that swap one
// rule for another while readers execute: because a commit applies
// atomically and lookups run against RCU snapshots, every probe must see
// exactly one of the two states — matched with the old output or matched
// with the new one, never a miss and never a blend. Run with -race.
func TestTxSnapshotIsolationUnderRace(t *testing.T) {
	cow.SealForTest(t)
	p := aclTxTable(t)
	m := openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)
	a := txEntry(5, 0, 1, m)
	b := txEntry(5, 0, 2, m)
	if _, err := p.Begin().Add(0, a).Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur, next := a, b
		for i := 0; i < 400; i++ {
			// Delete current + add next in ONE transaction: readers must
			// never observe the gap.
			tx := p.Begin()
			tx.DeleteStrict(0, 5, m)
			tx.Add(0, next)
			if _, err := tx.Commit(); err != nil {
				errs <- err.Error()
				break
			}
			cur, next = next, cur
		}
		_ = cur
		close(stop)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := p.Execute(&openflow.Header{IPv4Dst: 0x0A000001})
				if !res.Matched || len(res.Outputs) != 1 {
					errs <- "reader observed the delete/add gap"
					return
				}
				if out := res.Outputs[0]; out != 1 && out != 2 {
					errs <- "reader observed a blended state"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTxWideFieldSubsumption exercises non-strict selection on a 128-bit
// field (IPv6), which takes the structural prefix path rather than the
// interval path.
func TestTxWideFieldSubsumption(t *testing.T) {
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv6Dst},
	}); err != nil {
		t.Fatal(err)
	}
	u128 := func(hi, lo uint64) bitops.U128 { return bitops.U128{Hi: hi, Lo: lo} }
	p2001 := openflow.Prefix128(openflow.FieldIPv6Dst, u128(0x2001_0db8_0000_0000, 0), 32)
	p2001_48 := openflow.Prefix128(openflow.FieldIPv6Dst, u128(0x2001_0db8_0001_0000, 0), 48)
	pOther := openflow.Prefix128(openflow.FieldIPv6Dst, u128(0x2002_0000_0000_0000, 0), 16)
	tx := p.Begin()
	tx.Add(0, txEntry(32, 0, 1, p2001))
	tx.Add(0, txEntry(48, 0, 2, p2001_48))
	tx.Add(0, txEntry(16, 0, 3, pOther))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Begin().Delete(0, p2001).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2 || p.Rules() != 1 {
		t.Fatalf("v6 non-strict delete: res=%+v rules=%d", res, p.Rules())
	}
}
