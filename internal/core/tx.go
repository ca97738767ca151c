package core

import (
	"fmt"

	"ofmtl/internal/failpoint"
	"ofmtl/internal/openflow"
)

// This file implements the pipeline's transactional mutation API.
//
// The control plane mutates the pipeline through transactions with
// OpenFlow flow-mod semantics: a Tx collects Add / Modify / Delete /
// DeleteStrict commands and Commit validates and applies them all under
// one hold of the write lock. Readers observe either the pre-commit or
// the post-commit state — never an intermediate one — because lookups
// run against the RCU snapshot: until the commit ends they keep the one
// published before it, without waiting for the write lock the commit
// holds. A 256-command commit therefore costs one snapshot publish
// and invalidates the microflow cache exactly once, where 256
// single-entry mutations interleaved with lookups could publish 256.
//
// Commands resolve against the tables' rule stores in order, so later
// commands in a transaction observe the effects of earlier ones, as an
// OpenFlow switch processing a message sequence would. A command that
// fails rejects the whole transaction: every primitive operation applied
// so far is rolled back before Commit returns the error.

// FlowCmdOp selects a flow-mod command's operation.
type FlowCmdOp uint8

// Flow-mod operations, mirroring OFPFC_*: Add installs an entry,
// replacing any entry with the same match set and priority; Modify
// rewrites the instructions of every entry its match subsumes; Delete
// removes every entry its match subsumes (priority ignored);
// DeleteStrict removes entries with exactly the same match set and
// priority.
const (
	CmdAdd FlowCmdOp = iota + 1
	CmdModify
	CmdDelete
	CmdDeleteStrict
	// CmdRemoveExact removes one exact entry: like DeleteStrict but
	// additionally requiring the instructions to match, and erroring when
	// no entry does.
	CmdRemoveExact
)

// cmdExpire is the expiry sweeper's internal op: remove the entry IF it
// is still the exact installed flow the sweep selected (same lifecycle
// ref and allocation sequence). A flow the controller deleted — or
// deleted and reinstalled — between selection and commit is left alone,
// and the command is a benign no-op. Never valid from external callers.
const cmdExpire FlowCmdOp = 100

// String names the operation.
func (op FlowCmdOp) String() string {
	switch op {
	case CmdAdd:
		return "add"
	case CmdModify:
		return "modify"
	case CmdDelete:
		return "delete"
	case CmdDeleteStrict:
		return "delete-strict"
	case CmdRemoveExact:
		return "remove"
	case cmdExpire:
		return "expire"
	default:
		return "unknown"
	}
}

// FlowCmd is one flow-mod command of a transaction.
//
// Entry carries the command's match set, priority, cookie and (for Add
// and Modify) instructions. CookieMask gates Modify/Delete/DeleteStrict
// selection: with a non-zero mask only entries whose cookie equals
// Entry.Cookie on the masked bits are affected; Add ignores it.
type FlowCmd struct {
	Op         FlowCmdOp
	Table      openflow.TableID
	CookieMask uint64
	Entry      openflow.FlowEntry

	// expireSeq is cmdExpire's slot-reuse guard: the lifecycle allocation
	// sequence the sweep candidate was selected at. Unexported — only the
	// sweeper builds expire commands.
	expireSeq uint64
}

// TxResult reports what a committed transaction did.
type TxResult struct {
	// Commands is the number of commands the transaction carried.
	Commands int
	// Added counts entries installed by Add commands.
	Added int
	// Replaced counts entries displaced by Add commands that found an
	// entry with the same match set and priority already installed.
	Replaced int
	// Modified counts entries whose instructions Modify commands rewrote.
	Modified int
	// Deleted counts entries removed by Delete / DeleteStrict commands.
	Deleted int

	// expired records the flows cmdExpire commands actually removed (a
	// candidate the controller raced away is absent). The sweeper matches
	// them back to its candidates to emit flow-removed notifications only
	// for removals that really committed.
	expired []expiredRecord
}

// expiredRecord is one committed expiry removal.
type expiredRecord struct {
	table openflow.TableID
	entry *openflow.FlowEntry // the removed stored entry (Ref still stamped)
}

// Counts returns the comparable count fields of the result (the expired
// records, an internal side channel of the sweeper, are excluded).
// Differential tests compare results across backends with it.
func (r *TxResult) Counts() [5]int {
	return [5]int{r.Commands, r.Added, r.Replaced, r.Modified, r.Deleted}
}

// TxCounters is the pipeline's accumulated transaction telemetry.
type TxCounters struct {
	// Txs counts successfully committed transactions.
	Txs uint64
	// Commands counts flow-mod commands carried by committed transactions.
	Commands uint64
	// Rejected counts transactions that failed validation or application
	// (and were rolled back).
	Rejected uint64
}

// Tx is a mutation transaction under construction. It is not safe for
// concurrent use; build it on one goroutine and Commit once.
type Tx struct {
	p    *Pipeline
	cmds []FlowCmd
	done bool
}

// Begin opens a transaction against the pipeline. The transaction holds
// no locks until Commit, so building one never blocks lookups or other
// writers.
func (p *Pipeline) Begin() *Tx { return &Tx{p: p} }

// FlowMod appends a raw flow-mod command.
func (tx *Tx) FlowMod(cmd FlowCmd) *Tx {
	tx.cmds = append(tx.cmds, cmd)
	return tx
}

// Add appends an add command: install the entry, replacing any installed
// entry with the same match set and priority (OpenFlow OFPFC_ADD).
func (tx *Tx) Add(id openflow.TableID, e *openflow.FlowEntry) *Tx {
	return tx.FlowMod(FlowCmd{Op: CmdAdd, Table: id, Entry: *e})
}

// Modify appends a non-strict modify command: every installed entry whose
// match set is subsumed by e.Matches (and that passes the cookie filter,
// when armed via FlowMod) has its instructions replaced by
// e.Instructions. Priority is ignored for selection and preserved on the
// modified entries, as are their cookies. A modify that selects nothing
// is a no-op, not an error (OpenFlow OFPFC_MODIFY).
func (tx *Tx) Modify(id openflow.TableID, e *openflow.FlowEntry) *Tx {
	return tx.FlowMod(FlowCmd{Op: CmdModify, Table: id, Entry: *e})
}

// Delete appends a non-strict delete command: every installed entry whose
// match set is subsumed by the given matches is removed, regardless of
// priority (OpenFlow OFPFC_DELETE). Deleting nothing is a no-op. With no
// matches, every entry in the table is selected.
func (tx *Tx) Delete(id openflow.TableID, matches ...openflow.Match) *Tx {
	return tx.FlowMod(FlowCmd{Op: CmdDelete, Table: id, Entry: openflow.FlowEntry{Matches: matches}})
}

// DeleteStrict appends a strict delete command: entries with exactly the
// given match set and priority are removed (OpenFlow OFPFC_DELETE_STRICT).
func (tx *Tx) DeleteStrict(id openflow.TableID, priority int, matches ...openflow.Match) *Tx {
	return tx.FlowMod(FlowCmd{Op: CmdDeleteStrict, Table: id, Entry: openflow.FlowEntry{Priority: priority, Matches: matches}})
}

// Commands returns the number of commands queued so far.
func (tx *Tx) Commands() int { return len(tx.cmds) }

// undoOp records one applied primitive operation: the transaction
// installed rule sr (rollback removes it) or removed it (rollback
// reinstates it, and only a commit frees its lifecycle record) — or, with
// swapped set, an insert migrated the table off dir24 inline (rollback
// swaps the incumbent back).
type undoOp struct {
	t       *LookupTable
	sr      *storedRule
	removed bool
	swapped *swappedBackend
}

// Commit validates and applies the transaction atomically: either every
// command applies and Commit returns what changed, or none do and Commit
// returns the first error. Lookups racing the commit observe the
// pre-commit snapshot until the commit completes; then the commit
// publishes the post-commit snapshot, unpublishes the old one keeping
// the cache window, or retracts it, for the next lookup to publish —
// one snapshot version per commit, regardless of how many commands it
// carried. While a cache tier serves, the tiers keep their entries
// across it: the commit logs a record of its rules, and readers
// revalidate older entries against it.
//
// A transaction commits at most once; further Commit calls error.
func (tx *Tx) Commit() (TxResult, error) {
	if tx.done {
		return TxResult{}, fmt.Errorf("core: transaction already committed")
	}
	tx.done = true
	p := tx.p
	p.mu.Lock()
	defer p.mu.Unlock()

	// Phase 1: static validation. Commands that cannot possibly apply —
	// unknown table, malformed entry, fields the table does not search —
	// reject the transaction before anything is touched.
	for i := range tx.cmds {
		if err := p.validateCmdLocked(&tx.cmds[i]); err != nil {
			p.txRejected.Add(1)
			return TxResult{}, fmt.Errorf("core: tx command %d (%s): %w", i, tx.cmds[i].Op, err)
		}
	}

	// Record the touched tables and their high-water marks, suspending
	// their per-mutation stats publication: the accounting is stated once
	// per touched table at the end of the commit (success or rollback),
	// not once per primitive mutation, and a rejection restores the marks.
	// Validation has already confirmed the tables exist. With budgets
	// armed, the pre-transaction bits are recorded for admission control
	// too; unbudgeted pipelines skip that (two atomic loads).
	touched := p.markTouchedLocked(tx.cmds)
	var bc *budgetCheck
	if p.budgetsArmed() {
		bc = p.beginBudgetCheckLocked(touched)
	}
	defer p.flushStatsLocked()

	// Phase 2: sequential application with an undo log. Each command
	// resolves against the rule store as left by its predecessors.
	res := TxResult{Commands: len(tx.cmds)}
	var undo []undoOp
	reject := func(err error) (TxResult, error) {
		p.rollback(undo)
		p.restoreMarksLocked()
		if len(undo) > 0 {
			p.retract()
		}
		p.txRejected.Add(1)
		return TxResult{}, err
	}
	for i := range tx.cmds {
		var err error
		undo, err = p.applyCmdLocked(&tx.cmds[i], &res, undo)
		if err != nil {
			return reject(fmt.Errorf("core: tx command %d (%s): %w", i, tx.cmds[i].Op, err))
		}
	}
	// Injected commit fault (failpoint builds only): exercises the same
	// rollback path a real post-apply failure would take.
	if err := failpoint.Inject(failpoint.SiteCommit); err != nil {
		return reject(fmt.Errorf("core: tx commit: %w", err))
	}

	// Admission control: a commit that grew any budgeted accounting past
	// its limit is rejected whole — rolled back, with the backends'
	// high-water marks restored like any rejection's, so the republished
	// figures (via the deferred flush) are byte-identical to the
	// pre-transaction state and lock-free stats readers never observe an
	// over-budget one.
	if bc != nil {
		if err := p.checkBudgetsLocked(bc); err != nil {
			return reject(err)
		}
	}
	// The commit stands: the removed rules' lifecycle records go.
	for _, op := range undo {
		if op.removed {
			p.dir.free(op.sr.entry.Ref)
		}
	}
	p.txCommitted.Add(1)
	p.txCommands.Add(uint64(len(tx.cmds)))

	// Cache revalidation, for a tier that serves. With both tiers off or
	// bypassed by their admission rules, the commit retracts the snapshot
	// and the next lookup publishes one, whose fresh window invalidates
	// both tiers wholesale: tiers that serve almost nothing are not worth
	// a record per commit. Otherwise, while the cache window is open, the
	// commit logs itself in it: every touched rule (the undo log holds
	// each inserted and removed canonical entry) projected onto
	// packed-key space and compiled per tuple (megaflow.go). No slot is
	// visited: a reader tests an older entry against the record when it
	// meets it. With the megaflow tier armed, the commit then builds the
	// snapshot eagerly — still exactly one version bump — so no reader
	// waits for the publish; otherwise the next lookup publishes it.
	switch m := p.tiers[tierMasked].Load(); {
	case len(undo) == 0:
		// Nothing applied: the published snapshot stays current.
	case !p.tiersServe():
		p.retract()
	default:
		if p.win.base != 0 {
			shadows := make([]ruleShadow, 0, len(undo))
			for _, op := range undo {
				if op.sr != nil { // a backend swap changes no verdict
					shadows = append(shadows, shadowOf(&op.sr.entry))
				}
			}
			p.win.add(newCommitRecord(p.snapVersion.Load()+1, shadows, &p.tiers))
		}
		if m == nil || m.adm.bypassed.Load() {
			p.unpublish()
			break
		}
		// Publish suspended stats now, before the snapshot, so a reader
		// that classifies against this commit's rules reads its
		// accounting too (the deferred flush then finds nothing).
		p.flushStatsLocked()
		p.snap.Store(p.buildSnapshotLocked())
		p.infoCache = nil
	}

	// One pressure-controller step per committed transaction: shed or
	// restore cache capacity as the accounting moves against the
	// process budget (no-op without one — a single atomic load).
	if p.memBudget.Load() > 0 || p.pressSteps.Load() > 0 {
		p.adjustPressureLocked()
	}
	return res, nil
}

// validateCmdLocked statically checks one command against the pipeline.
func (p *Pipeline) validateCmdLocked(cmd *FlowCmd) error {
	t, ok := p.tables[cmd.Table]
	if !ok {
		return fmt.Errorf("core: pipeline has no table %d", cmd.Table)
	}
	switch cmd.Op {
	case CmdAdd:
		if err := cmd.Entry.Validate(); err != nil {
			return err
		}
		if err := t.checkCoverage(&cmd.Entry); err != nil {
			return err
		}
		// Group references are checked up front so a dangling reference
		// rejects the transaction before anything applies (the insert-time
		// acquire would also catch it, after partial application).
		if t.groups != nil {
			return t.groups.check(cmd.Entry.Instructions)
		}
		return nil
	case CmdModify:
		// The matches are a selector, not an installed constraint: a
		// field this table does not search simply selects nothing
		// (installed entries all wildcard it), exactly like CmdDelete —
		// so no coverage check. The modified entries keep their own
		// (already covered) matches.
		if err := cmd.Entry.Validate(); err != nil {
			return err
		}
		if t.groups != nil {
			return t.groups.check(cmd.Entry.Instructions)
		}
		return nil
	case cmdExpire:
		return nil // built internally from an installed entry
	case CmdDelete, CmdDeleteStrict, CmdRemoveExact:
		for _, m := range cmd.Entry.Matches {
			if err := m.Validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown flow-mod op %d", int(cmd.Op))
	}
}

// applyCmdLocked resolves one command against the table's rule store and
// applies the resulting primitive inserts/removes, extending the undo log.
func (p *Pipeline) applyCmdLocked(cmd *FlowCmd, res *TxResult, undo []undoOp) ([]undoOp, error) {
	t := p.tables[cmd.Table]
	remove := func(sr *storedRule) error {
		if err := t.unlink(sr); err != nil {
			return err
		}
		undo = append(undo, undoOp{t: t, sr: sr, removed: true})
		return nil
	}
	insert := func(e *openflow.FlowEntry) error {
		prev := t.swapState()
		sr, err := t.insert(e)
		if t.backend != prev.backend {
			swapped := prev
			undo = append(undo, undoOp{t: t, swapped: &swapped})
		}
		if err != nil {
			return err
		}
		undo = append(undo, undoOp{t: t, sr: sr})
		return nil
	}
	switch cmd.Op {
	case CmdAdd:
		// Displace any entry with the same match set and priority
		// (cookie-blind, per OFPFC_ADD), then install the new entry.
		for _, sr := range t.store.strictSelect(&cmd.Entry, 0, 0) {
			if err := remove(sr); err != nil {
				return undo, err
			}
			res.Replaced++
		}
		if err := insert(&cmd.Entry); err != nil {
			return undo, err
		}
		res.Added++

	case CmdModify:
		for _, sr := range t.store.nonStrictSelect(cmd.Entry.Matches, cmd.Entry.Cookie, cmd.CookieMask) {
			mod := sr.entry.Clone()
			mod.Instructions = cmd.Entry.Instructions
			if err := remove(sr); err != nil {
				return undo, err
			}
			if err := insert(mod); err != nil {
				return undo, err
			}
			res.Modified++
		}

	case CmdDelete, CmdDeleteStrict:
		var sel []*storedRule
		if cmd.Op == CmdDelete {
			sel = t.store.nonStrictSelect(cmd.Entry.Matches, cmd.Entry.Cookie, cmd.CookieMask)
		} else {
			sel = t.store.strictSelect(&cmd.Entry, cmd.Entry.Cookie, cmd.CookieMask)
		}
		for _, sr := range sel {
			if err := remove(sr); err != nil {
				return undo, err
			}
			res.Deleted++
		}

	case CmdRemoveExact:
		sr, err := t.installed(&cmd.Entry)
		if err == nil {
			err = remove(sr)
		}
		if err != nil {
			return undo, err
		}
		res.Deleted++

	case cmdExpire:
		// Expire exactly the installed flow the sweep selected: same
		// strict identity, same lifecycle ref, and a live directory record
		// at the same allocation sequence. Anything else means the
		// controller won the race (deleted, or deleted and reinstalled an
		// identical flow that drew a recycled ref) — benign no-op.
		for _, sr := range t.store.strictSelect(&cmd.Entry, 0, 0) {
			if sr.entry.Ref != cmd.Entry.Ref {
				continue
			}
			if p.dir != nil {
				m := p.dir.metaOf(sr.entry.Ref)
				if m == nil || m.seq != cmd.expireSeq {
					break
				}
			}
			if err := remove(sr); err != nil {
				return undo, err
			}
			res.Deleted++
			res.expired = append(res.expired, expiredRecord{table: cmd.Table, entry: &sr.entry})
			break
		}
	}
	return undo, nil
}

// rollback reverts applied primitives in reverse order: installed rules
// leave (freeing their lifecycle records), removed ones return as they
// were — same install sequence, same lifecycle record — and a table an
// insert migrated gets its incumbent backend back. Reverting cannot
// fail for content reasons; an impossible failure is surfaced as a panic
// because it means the engine lost track of its own state.
func (p *Pipeline) rollback(undo []undoOp) {
	for i := len(undo) - 1; i >= 0; i-- {
		op := undo[i]
		var err error
		if op.swapped != nil {
			op.t.unswapBackend(op.swapped)
		} else if op.removed {
			op.t.store.relink(op.sr)
			err = op.t.link(op.sr)
		} else if err = op.t.unlink(op.sr); err == nil {
			p.dir.free(op.sr.entry.Ref)
		}
		if err != nil {
			panic(fmt.Sprintf("core: tx rollback failed: %v", err))
		}
	}
}
