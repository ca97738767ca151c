package core

import (
	"errors"
	"reflect"
	"testing"

	"ofmtl/internal/openflow"
)

// budgetTable builds a single-table pipeline under the given backend for
// budget tests.
func budgetTable(t *testing.T, backend string, budgetBits uint64) *Pipeline {
	t.Helper()
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{
		ID: 0,
		Fields: []openflow.FieldID{
			openflow.FieldIPv4Dst,
			openflow.FieldIPProto,
		},
		Backend:    backend,
		BudgetBits: budgetBits,
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

func budgetEntry(i int) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority: i + 1,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldIPv4Dst, uint64(0x0A000000+i)),
			openflow.Exact(openflow.FieldIPProto, 6),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(i)))},
	}
}

// fillRules installs n distinct entries and returns the accounted bits.
func fillRules(t *testing.T, p *Pipeline, from, n int) uint64 {
	t.Helper()
	tx := p.Begin()
	for i := from; i < from+n; i++ {
		tx.Add(0, budgetEntry(i))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return p.MemoryStats().TotalBits
}

// TestTableBudgetRejectsGrowth pins admission control and atomic
// rollback for every backend: a commit that would grow a budgeted
// table past its limit is rejected whole, the error identifies the
// table and figures, and the published accounting is byte-identical to
// the pre-transaction state.
func TestTableBudgetRejectsGrowth(t *testing.T) {
	for _, backend := range BackendKinds() {
		t.Run(backend, func(t *testing.T) {
			if !BackendSupportsFields(backend, []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldIPProto}) {
				t.Skipf("backend %s cannot serve the two-field budget table; see TestDIR24BudgetRejectsGrowth", backend)
			}
			p := budgetTable(t, backend, 0)
			used := fillRules(t, p, 0, 8)
			if used == 0 {
				t.Fatal("8 rules accounted as 0 bits")
			}
			// Cap the table just above its current usage, then try to
			// grow well past it in one batch.
			if err := p.SetTableBudget(0, used+1); err != nil {
				t.Fatal(err)
			}
			p.Refresh()
			pre := p.MemoryStats()
			preRules := p.Rules()

			tx := p.Begin()
			for i := 8; i < 40; i++ {
				tx.Add(0, budgetEntry(i))
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
			post := p.MemoryStats()
			if !reflect.DeepEqual(pre, post) {
				t.Fatalf("MemoryStats changed across a rejected commit:\npre:  %+v\npost: %+v", pre, post)
			}
			// The views lookups classify against state the same figure.
			if rep := p.MemoryReport(); uint64(rep.TotalBits) != post.TotalBits {
				t.Fatalf("MemoryReport states %d bits after a rejected commit, MemoryStats %d", rep.TotalBits, post.TotalBits)
			}
			if got := p.TxCounters().Rejected; got != 1 {
				t.Fatalf("rejected counter = %d, want 1", got)
			}
		})
	}
}

// TestCommitExactlyAtBudget pins the boundary: a commit landing the
// accounting exactly on the budget is admitted (the test is "grew past",
// not "reached"), and the next growing commit is rejected.
func TestCommitExactlyAtBudget(t *testing.T) {
	// Measure what 8 rules cost, then replay against that exact budget.
	probe := budgetTable(t, "", 0)
	exact := fillRules(t, probe, 0, 8)

	p := budgetTable(t, "", exact)
	if got := fillRules(t, p, 0, 8); got != exact {
		t.Fatalf("replayed usage %d bits, want %d", got, exact)
	}
	if _, err := p.Begin().Add(0, budgetEntry(8)).Commit(); err == nil {
		t.Fatal("commit growing past an exactly-met budget succeeded")
	}
}

// TestBudgetShrinkBelowUsage pins the over-budget steady state after an
// operator shrinks a budget below current usage: installed rules stay,
// growing commits are rejected, and shrinking commits always pass (the
// way back under the limit).
func TestBudgetShrinkBelowUsage(t *testing.T) {
	p := budgetTable(t, "", 0)
	fillRules(t, p, 0, 16)
	if err := p.SetTableBudget(0, 1); err != nil { // far below usage
		t.Fatal(err)
	}
	if got := p.Rules(); got != 16 {
		t.Fatalf("rules = %d after budget shrink, want 16 (existing rules stay)", got)
	}
	if _, err := p.Begin().Add(0, budgetEntry(16)).Commit(); err == nil {
		t.Fatal("growing commit admitted while over a shrunk budget")
	}
	// Deletes must commit even though the table stays over budget.
	if _, err := p.Begin().DeleteStrict(0, 1,
		openflow.Exact(openflow.FieldIPv4Dst, 0x0A000000),
		openflow.Exact(openflow.FieldIPProto, 6)).Commit(); err != nil {
		t.Fatalf("shrinking commit rejected while over budget: %v", err)
	}
	if got := p.Rules(); got != 15 {
		t.Fatalf("rules = %d after delete, want 15", got)
	}
	// A replace of an existing entry holds memory roughly constant; it
	// must not be rejected just for being over budget unless it grows.
	if _, err := p.Begin().Add(0, budgetEntry(1)).Commit(); err != nil {
		t.Fatalf("memory-neutral replace rejected while over budget: %v", err)
	}
}

// TestProcessBudget pins the process-wide limit: the total accounting
// across tables is capped, violations carry Process=true, and the
// budget is surfaced through MemoryStats.
func TestProcessBudget(t *testing.T) {
	p := budgetTable(t, "", 0)
	used := fillRules(t, p, 0, 8)
	p.SetMemoryBudget(used + 1)
	if got := p.MemoryStats().BudgetBits; got != used+1 {
		t.Fatalf("MemoryStats.BudgetBits = %d, want %d", got, used+1)
	}
	tx := p.Begin()
	for i := 8; i < 24; i++ {
		tx.Add(0, budgetEntry(i))
	}
	_, err := tx.Commit()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("over-budget commit returned %v, want *BudgetError", err)
	}
	if !be.Process {
		t.Fatalf("BudgetError = %+v, want Process=true", be)
	}
	if got := p.Rules(); got != 8 {
		t.Fatalf("rules = %d after rejection, want 8", got)
	}
	// Lifting the budget admits the same batch.
	p.SetMemoryBudget(0)
	tx = p.Begin()
	for i := 8; i < 24; i++ {
		tx.Add(0, budgetEntry(i))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("commit with budget lifted: %v", err)
	}
}

// TestTableBudgetPublished pins the wire-visible budget figures: the
// per-table budget travels in TableMemory and SetTableBudget updates
// it for lock-free readers.
func TestTableBudgetPublished(t *testing.T) {
	p := budgetTable(t, "", 4096)
	if got := p.MemoryStats().Tables[0].BudgetBits; got != 4096 {
		t.Fatalf("published table budget = %d, want 4096", got)
	}
	if err := p.SetTableBudget(0, 8192); err != nil {
		t.Fatal(err)
	}
	if got := p.MemoryStats().Tables[0].BudgetBits; got != 8192 {
		t.Fatalf("published table budget = %d after SetTableBudget, want 8192", got)
	}
	if err := p.SetTableBudget(7, 1); err == nil {
		t.Fatal("SetTableBudget on a missing table succeeded")
	}
}

// TestBudgetChangeKeepsCachesWarm pins that setting a budget leaves the
// lookup side alone: with both budgets well above use the pressure
// controller does nothing, and a flow the microflow tier holds is served
// from it again, against the same snapshot.
func TestBudgetChangeKeepsCachesWarm(t *testing.T) {
	p := budgetTable(t, "", 0)
	used := fillRules(t, p, 0, 8)
	p.SetCacheSize(1 << 10)
	flow := openflow.Header{IPv4Dst: 0x0A000003, IPProto: 6}
	execute := func() {
		t.Helper()
		h := flow
		if r := p.Execute(&h); len(r.Outputs) != 1 || r.Outputs[0] != 3 {
			t.Fatalf("flow forwarded to %v, want [3]", r.Outputs)
		}
	}
	execute()
	execute()
	if hits := p.CacheStats().Hits; hits != 1 {
		t.Fatalf("microflow hits = %d after a flow's second packet, want 1", hits)
	}
	ver, hits := p.SnapshotVersion(), p.CacheStats().Hits

	p.SetMemoryBudget(4 * used)
	if err := p.SetTableBudget(0, 4*used); err != nil {
		t.Fatal(err)
	}
	execute()
	if got := p.SnapshotVersion(); got != ver {
		t.Errorf("snapshot version %d after the budget changes, want %d", got, ver)
	}
	if got := p.CacheStats().Hits; got != hits+1 {
		t.Errorf("microflow hits = %d after the budget changes, want %d", got, hits+1)
	}
	if st := p.PressureStats(); st != (PressureStats{}) {
		t.Errorf("pressure controller acted: %+v", st)
	}
}

// TestBudgetMidBatchRejection pins atomicity when the violation happens
// mid-batch: commands before the violating one are rolled back too.
func TestBudgetMidBatchRejection(t *testing.T) {
	p := budgetTable(t, "", 0)
	used := fillRules(t, p, 0, 4)
	if err := p.SetTableBudget(0, used+1); err != nil {
		t.Fatal(err)
	}
	pre := p.MemoryStats()
	// A batch that first deletes one rule (fine) then adds ten (bursts).
	tx := p.Begin()
	tx.DeleteStrict(0, 1,
		openflow.Exact(openflow.FieldIPv4Dst, 0x0A000000),
		openflow.Exact(openflow.FieldIPProto, 6))
	for i := 4; i < 14; i++ {
		tx.Add(0, budgetEntry(i))
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("bursting batch admitted")
	}
	if got := p.Rules(); got != 4 {
		t.Fatalf("rules = %d after mid-batch rejection, want 4", got)
	}
	if post := p.MemoryStats(); !reflect.DeepEqual(pre, post) {
		t.Fatalf("MemoryStats changed across a rejected batch:\npre:  %+v\npost: %+v", pre, post)
	}
}
