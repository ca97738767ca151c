package core

import (
	"fmt"

	"ofmtl/internal/openflow"
)

// This file implements memory budgets and the pressure controller — the
// runtime guardrails over the live accounting of backend.go.
//
// The paper analyses the memory cost of multiple-table lookup offline;
// the accounting layer made that cost a live observable; budgets make
// it enforceable. Two limits exist: per-table budgets (TableConfig
// .BudgetBits / SetTableBudget) and a process-wide budget
// (SetMemoryBudget / switchd -membudget), both in modelled bits, both
// checked at Tx.Commit time against the backends' incremental
// counters. An over-budget transaction is rejected atomically — the
// undo log rolls every applied primitive back — so the accounting
// never observes a state beyond its limits. A transaction that frees
// memory (or leaves it unchanged) always commits, even while the table
// is over a freshly shrunk budget: the test is "grew AND over", not
// just "over", so operators can always delete their way back under.
//
// The process budget also drives graceful degradation: the two cache
// tiers are heap structures competing with rule memory for the same
// host RAM, so as rule memory approaches the budget the pipeline
// sheds cache capacity instead of serving lookups against swap. The
// controller runs one step per commit: above the high-water mark (90%
// of budget) it halves one tier — megaflow first, then microflow,
// each to a floor — and below the low-water mark (75%) it doubles one
// tier back toward its configured size. Hit/miss totals carry across
// resizes, so the reported cache counters stay monotonic; the entries
// themselves re-learn on their next miss, exactly as an operator
// resize behaves.

// BudgetError reports a transaction rejected by admission control: the
// commit would have grown memory past a configured budget. It
// identifies the violated limit (one table's, or the process-wide
// one), the limit itself and the bits the commit would have used.
type BudgetError struct {
	// Process is true when the process-wide budget was violated; false
	// when a single table's was.
	Process bool
	// Table is the violating table (valid when Process is false).
	Table openflow.TableID
	// BudgetBits is the configured limit.
	BudgetBits uint64
	// UsedBits is what the rejected commit would have used.
	UsedBits uint64
}

// Error formats the violation.
func (e *BudgetError) Error() string {
	if e.Process {
		return fmt.Sprintf("core: memory budget exceeded: %d bits used of %d budgeted", e.UsedBits, e.BudgetBits)
	}
	return fmt.Sprintf("core: table %d memory budget exceeded: %d bits used of %d budgeted", e.Table, e.UsedBits, e.BudgetBits)
}

// SetMemoryBudget sets the process-wide memory budget in modelled bits
// (0 = unlimited). Commits that would grow the total accounting past
// it are rejected with a *BudgetError; the pressure controller starts
// shedding cache capacity as the total approaches it. MemoryStats
// readers see the figure on their next call. Lookups are unaffected: the
// snapshot they classify against and both cache tiers stay as they are.
// Safe to call concurrently with lookups and commits.
func (p *Pipeline) SetMemoryBudget(bits uint64) {
	p.memBudget.Store(bits)
	p.mu.Lock()
	p.adjustPressureLocked()
	p.mu.Unlock()
}

// MemoryBudget returns the process-wide memory budget in bits (0 =
// unlimited).
func (p *Pipeline) MemoryBudget() uint64 { return p.memBudget.Load() }

// SetTableBudget sets one table's memory budget in modelled bits (0 =
// unlimited), replacing any budget its TableConfig carried. The new
// figure is republished immediately, so MemoryStats readers see it on
// their next call; like SetMemoryBudget it leaves the published snapshot
// and the cache tiers as they are.
func (p *Pipeline) SetTableBudget(id openflow.TableID, bits uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tables[id]
	if !ok {
		return fmt.Errorf("core: pipeline has no table %d", id)
	}
	if (t.budgetBits == 0) != (bits == 0) {
		if bits == 0 {
			p.tableBudgets.Add(-1)
		} else {
			p.tableBudgets.Add(1)
		}
	}
	t.budgetBits = bits
	t.publishStats()
	return nil
}

// budgetsArmed reports whether any budget is configured — the fast-path
// gate that keeps unbudgeted commits from paying for accounting scans.
func (p *Pipeline) budgetsArmed() bool {
	return p.memBudget.Load() > 0 || p.tableBudgets.Load() > 0
}

// totalBitsLocked sums the live accounting across every table, straight
// from the backends' memory statements (cheap: they walk no per-rule
// structure).
func (p *Pipeline) totalBitsLocked() uint64 {
	var total uint64
	for _, t := range p.tables {
		total += statsOf(t.backend).TotalBits()
	}
	return total
}

// budgetCheck is the pre-commit accounting a budgeted transaction
// snapshots before its apply loop: the touched tables' bits and the
// process total, so the post-apply check can tell growth from
// already-over steady state.
type budgetCheck struct {
	touched  []*LookupTable
	preBits  []uint64
	preTotal uint64
}

// beginBudgetCheckLocked snapshots the pre-transaction bit totals of the
// given distinct touched tables for the admission test. (The rejection
// path restores their high-water marks whether or not budgets are armed;
// see markTouchedLocked.) Caller holds the write lock.
func (p *Pipeline) beginBudgetCheckLocked(touched []*LookupTable) *budgetCheck {
	bc := &budgetCheck{touched: touched, preBits: make([]uint64, len(touched))}
	for i, t := range touched {
		bc.preBits[i] = statsOf(t.backend).TotalBits()
	}
	if p.memBudget.Load() > 0 {
		bc.preTotal = p.totalBitsLocked()
	}
	return bc
}

// checkBudgetsLocked runs admission control after a transaction's apply
// loop: any touched table that grew past its budget, or a process
// total that grew past the process budget, rejects the transaction
// (the caller rolls back). Transactions that shrink or hold memory
// pass even when already over budget.
func (p *Pipeline) checkBudgetsLocked(bc *budgetCheck) error {
	for i, t := range bc.touched {
		b := t.budgetBits
		if b == 0 {
			continue
		}
		post := statsOf(t.backend).TotalBits()
		if post > b && post > bc.preBits[i] {
			return &BudgetError{Table: t.cfg.ID, BudgetBits: b, UsedBits: post}
		}
	}
	if b := p.memBudget.Load(); b > 0 {
		post := p.totalBitsLocked()
		if post > b && post > bc.preTotal {
			return &BudgetError{Process: true, BudgetBits: b, UsedBits: post}
		}
	}
	return nil
}

// PressureStats reports the pressure controller's activity: how many
// shrink and regrow steps it has taken over the pipeline's lifetime,
// and the current degradation depth (0 = both cache tiers at their
// configured sizes).
type PressureStats struct {
	Shrinks uint64
	Regrows uint64
	Level   uint64
}

// PressureStats returns the controller counters. Lock-free.
func (p *Pipeline) PressureStats() PressureStats {
	return PressureStats{
		Shrinks: p.pressShrinks.Load(),
		Regrows: p.pressRegrows.Load(),
		Level:   p.pressSteps.Load(),
	}
}

// adjustPressureLocked runs one pressure-controller step against the
// current accounting: shrink a tier at or above the high-water mark,
// regrow one at or below the low-water mark, do nothing in the
// hysteresis band between. One step per call bounds the work a single
// commit can trigger; sustained pressure converges over the following
// commits. Caller holds the write lock.
func (p *Pipeline) adjustPressureLocked() {
	budget := p.memBudget.Load()
	if budget == 0 {
		// No process budget: nothing to degrade against; restore any
		// previously shed capacity one step at a time.
		if p.pressSteps.Load() > 0 {
			p.regrowStepLocked()
		}
		return
	}
	used := p.totalBitsLocked()
	high := budget - budget/10 // 90% of budget
	low := budget - budget/4   // 75% of budget
	switch {
	case used >= high:
		p.shrinkStepLocked()
	case used <= low && p.pressSteps.Load() > 0:
		p.regrowStepLocked()
	}
}

// shrinkOrder is the order tiers shed capacity in: the masked tier first
// (regions re-learn cheaply and the tier fronts only traced walks), then
// the exact tier. Capacity is restored in the reverse order.
var shrinkOrder = [numTiers]int{tierMasked, tierExact}

// shrinkStepLocked sheds one halving of cache capacity from the first
// tier in shrinkOrder still above its floor. With both tiers at their
// floors there is nothing left to shed — admission control is the
// remaining backstop.
func (p *Pipeline) shrinkStepLocked() {
	for _, tier := range shrinkOrder {
		if c := p.tiers[tier].Load(); c != nil && c.entries > tierFloor[tier] {
			p.resizeTierLocked(tier, c, c.entries/2)
			p.pressShrinks.Add(1)
			p.pressSteps.Add(1)
			return
		}
	}
}

// regrowStepLocked restores one halving, toward the configured size, to
// the last tier in shrinkOrder still below it.
func (p *Pipeline) regrowStepLocked() {
	for i := numTiers - 1; i >= 0; i-- {
		tier := shrinkOrder[i]
		target := tierCapacity(tier, p.tierTarget[tier])
		if c := p.tiers[tier].Load(); c != nil && c.entries < target {
			p.resizeTierLocked(tier, c, min(c.entries*2, target))
			p.pressRegrows.Add(1)
			p.pressSteps.Add(^uint64(0))
			return
		}
	}
	// Neither tier is below target (e.g. an operator resize raced the
	// controller): the recorded depth is stale; clear it.
	p.pressSteps.Store(0)
}

// resizeTierLocked swaps in a tier of the given capacity, carrying the
// accumulated hit/miss totals so the reported cache counters stay monotonic
// across pressure resizes. Tier hits and misses added to the old tier
// after the carry are lost — an acceptable stats race, as those totals are
// diagnostics, not accounting. Flow counters are not: retiring the old
// tier hands its entries' pending hits to their rules, and a reader still
// holding it counts on the rules directly. Entries re-learn on their next
// miss.
func (p *Pipeline) resizeTierLocked(tier int, old *flowCache, entries int) {
	nc := newFlowCache(tier, entries)
	nc.adm.carry(&old.adm)
	p.tiers[tier].Store(nc)
	old.retire(p.dir)
}
