package core

import (
	"testing"

	"ofmtl/internal/openflow"
)

// neutralCommit commits a memory-neutral replace (re-adding an installed
// entry), which always passes admission control — the vehicle for
// stepping the pressure controller without changing the accounting.
func neutralCommit(t *testing.T, p *Pipeline) {
	t.Helper()
	if _, err := p.Begin().Add(0, budgetEntry(0)).Commit(); err != nil {
		t.Fatalf("neutral commit: %v", err)
	}
}

// TestPressureShrinkOrder pins the degradation order under sustained
// memory pressure: the megaflow tier halves first, then the microflow
// cache, each down to its floor, one step per commit — and once both sit
// at their floors further pressure sheds nothing more (admission control
// is the remaining backstop).
func TestPressureShrinkOrder(t *testing.T) {
	p := budgetTable(t, "", 0)
	p.SetCacheSize(4 * microflowFloorEntries) // 2048
	p.SetMegaflowSize(4 * megaflowFloorEntries)
	used := fillRules(t, p, 0, 16)

	// A budget equal to current usage puts the accounting at 100% —
	// above the 90% high-water mark — while neutral commits still pass.
	p.SetMemoryBudget(used) // runs one controller step itself
	type sizes struct{ mega, micro int }
	want := []sizes{
		{2 * megaflowFloorEntries, 4 * microflowFloorEntries}, // mega 256->128
		{megaflowFloorEntries, 4 * microflowFloorEntries},     // mega 128->64 (floor)
		{megaflowFloorEntries, 2 * microflowFloorEntries},     // micro 2048->1024
		{megaflowFloorEntries, microflowFloorEntries},         // micro 1024->512 (floor)
		{megaflowFloorEntries, microflowFloorEntries},         // both floored: no-op
	}
	for i, w := range want {
		if got := p.MegaflowStats().Entries; got != w.mega {
			t.Fatalf("step %d: megaflow entries = %d, want %d", i, got, w.mega)
		}
		if got := p.CacheStats().Entries; got != w.micro {
			t.Fatalf("step %d: microflow entries = %d, want %d", i, got, w.micro)
		}
		neutralCommit(t, p)
	}
	ps := p.PressureStats()
	if ps.Shrinks != 4 || ps.Level != 4 {
		t.Fatalf("PressureStats = %+v, want 4 shrinks at level 4", ps)
	}
}

// TestPressureRegrow pins the recovery path: with the pressure cleared
// the controller restores shed capacity one step per commit, microflow
// first, back to the configured targets, and the degradation level
// returns to zero.
func TestPressureRegrow(t *testing.T) {
	p := budgetTable(t, "", 0)
	p.SetCacheSize(2 * microflowFloorEntries)
	p.SetMegaflowSize(2 * megaflowFloorEntries)
	used := fillRules(t, p, 0, 16)
	p.SetMemoryBudget(used)
	for i := 0; i < 2; i++ { // shed both tiers to their floors
		neutralCommit(t, p)
	}
	if p.MegaflowStats().Entries != megaflowFloorEntries ||
		p.CacheStats().Entries != microflowFloorEntries {
		t.Fatalf("tiers not floored: mega=%d micro=%d",
			p.MegaflowStats().Entries, p.CacheStats().Entries)
	}

	p.SetMemoryBudget(0) // pressure cleared; recorded depth remains
	neutralCommit(t, p)  // regrow 1: microflow first
	if got := p.CacheStats().Entries; got != 2*microflowFloorEntries {
		t.Fatalf("microflow entries = %d after first regrow, want %d", got, 2*microflowFloorEntries)
	}
	neutralCommit(t, p) // regrow 2: then megaflow
	if got := p.MegaflowStats().Entries; got != 2*megaflowFloorEntries {
		t.Fatalf("megaflow entries = %d after second regrow, want %d", got, 2*megaflowFloorEntries)
	}
	ps := p.PressureStats()
	if ps.Level != 0 || ps.Regrows != 2 {
		t.Fatalf("PressureStats = %+v, want level 0 after 2 regrows", ps)
	}
	neutralCommit(t, p) // at level 0 the controller is inert
	if got := p.PressureStats(); got != ps {
		t.Fatalf("PressureStats moved while inert: %+v -> %+v", ps, got)
	}
}

// TestPressureCounterCarry pins that hit/miss totals survive a pressure
// resize: the cache-stats surfaces stay monotonic even as the entries
// themselves are dropped for re-learning.
func TestPressureCounterCarry(t *testing.T) {
	p := budgetTable(t, "", 0)
	p.SetCacheSize(2 * microflowFloorEntries)
	used := fillRules(t, p, 0, 8)

	// Prime the counters: one miss (learn), one hit.
	for i := 0; i < 2; i++ {
		h := &openflow.Header{IPv4Dst: 0x0A000000, IPProto: 6}
		if res := p.Execute(h); len(res.Outputs) == 0 {
			t.Fatal("lookup missed an installed rule")
		}
	}
	pre := p.CacheStats()
	if pre.Hits == 0 || pre.Misses == 0 {
		t.Fatalf("priming produced no counters: %+v", pre)
	}

	p.SetMemoryBudget(used) // 100% of budget: sheds one microflow halving
	post := p.CacheStats()
	if post.Entries != microflowFloorEntries {
		t.Fatalf("microflow entries = %d after shrink, want %d", post.Entries, microflowFloorEntries)
	}
	if post.Hits != pre.Hits || post.Misses != pre.Misses {
		t.Fatalf("counters lost across resize: pre %+v post %+v", pre, post)
	}
}

// TestPressureStaleDepthClears pins the operator-resize race: when a
// resize leaves both tiers at (or above) their targets while the
// controller still records shed capacity, the next regrow step clears
// the stale depth instead of growing anything.
func TestPressureStaleDepthClears(t *testing.T) {
	p := budgetTable(t, "", 0)
	p.SetCacheSize(2 * microflowFloorEntries)
	used := fillRules(t, p, 0, 8)
	p.SetMemoryBudget(used) // sheds one microflow halving, level 1
	if got := p.PressureStats().Level; got != 1 {
		t.Fatalf("level = %d after shed, want 1", got)
	}

	// Operator resize: the target now matches the live capacity.
	p.SetCacheSize(microflowFloorEntries)
	p.SetMemoryBudget(0)
	neutralCommit(t, p)
	ps := p.PressureStats()
	if ps.Level != 0 || ps.Regrows != 0 {
		t.Fatalf("PressureStats = %+v, want stale level cleared without regrows", ps)
	}
}
