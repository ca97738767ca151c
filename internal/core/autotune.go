package core

import (
	"fmt"
	"sort"
	"time"

	"ofmtl/internal/core/autotune"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/openflow"
)

// This file is the runtime half of the self-tuning backend subsystem: the
// rule-set shape tracking, the advisor loop scoring every candidate
// scheme, the incumbent included, with the fitted cost model, and the live
// migration machinery that rebuilds a table on a new backend off the data
// path and swaps it at a single commit boundary. The pure decision core
// (cost model, hysteresis policy) lives in internal/core/autotune.

// tuneModel is the advisor's cost model. It is read-only: the advisor
// times nothing, so a decision depends on the table's shape, the policy
// and the dwell, never on the machine's load.
var tuneModel = autotune.DefaultModel()

// maskSignature hashes an entry's match-mask shape — which fields it
// constrains, how (kind), and at what prefix length — ignoring the
// matched values. Rules sharing a signature would share a TSS tuple, so
// the live signature count is the advisor's mask-diversity signal.
func maskSignature(e *openflow.FlowEntry) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, m := range e.Matches {
		if m.Kind == openflow.MatchAny {
			continue
		}
		v := uint64(m.Field)<<16 | uint64(m.Kind)<<8 | uint64(uint8(m.PrefixLen))
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime64
		}
	}
	return h
}

// entryBlocksDIR24 reports whether the entry makes the table ineligible
// for the dir24 flat-array scheme: any constraint on a field other than
// the designated 32-bit LPM field (dir24 would silently treat it as a
// wildcard), or no designated field at all.
func (t *LookupTable) entryBlocksDIR24(e *openflow.FlowEntry) bool {
	if !t.hasDesignated {
		return true
	}
	for _, m := range e.Matches {
		if m.Kind != openflow.MatchAny && m.Field != t.designated {
			return true
		}
	}
	return false
}

// trackShape folds one installed (delta=+1) or removed (delta=-1) entry
// into the table's shape counters. Runs under the pipeline write lock,
// on the canonical stored entry.
func (t *LookupTable) trackShape(e *openflow.FlowEntry, delta int) {
	sig := maskSignature(e)
	if n := t.maskSigs[sig] + delta; n > 0 {
		t.maskSigs[sig] = n
	} else {
		delete(t.maskSigs, sig)
	}
	for _, m := range e.Matches {
		if m.Kind == openflow.MatchRange {
			t.rangeRules += delta
			break
		}
	}
	if t.hasDesignated && t.entryBlocksDIR24(e) {
		t.wideRules += delta
	}
}

// eligibleFor reports whether the table's current rule set could be
// served by the named scheme right now. For the shape-restricted dir24 a
// pinned-incompatible field set can still be eligible under auto: as long
// as every installed rule constrains only the designated LPM field, the
// other configured fields are uniformly wildcarded and the flat array
// answers correctly.
func (t *LookupTable) eligibleFor(kind string) bool {
	if kind == BackendDIR24 {
		return t.hasDesignated && t.wideRules == 0
	}
	return BackendSupportsFields(kind, t.cfg.Fields)
}

// Migration reason codes, published per table through AdvisorStats (the
// advisor section of the stats report) by name.
const (
	// MigrateReasonNone: the table has never migrated.
	MigrateReasonNone uint32 = iota
	// MigrateReasonScore: the advisor's scored challenger beat the
	// incumbent past the hysteresis margin.
	MigrateReasonScore
	// MigrateReasonShape: the rule set's shape forced the incumbent out
	// (a dir24 incumbent gained a rule it cannot represent, or the
	// advisor evicted an incumbent that went ineligible).
	MigrateReasonShape
)

// MigrateReasonName renders a migration reason code.
func MigrateReasonName(r uint32) string {
	switch r {
	case MigrateReasonScore:
		return "score"
	case MigrateReasonShape:
		return "shape"
	default:
		return "none"
	}
}

// allSeqOrdered returns every stored rule in installation order — the
// canonical replay sequence for rebuilding a backend. Bucket iteration is
// unordered, so the collected rules are sorted by sequence number; each
// is replayed with its own sequence, so the rebuilt backend breaks
// priority ties exactly as the incumbent did.
func (rs *ruleStore) allSeqOrdered() []*storedRule {
	out := make([]*storedRule, 0, rs.count)
	for _, b := range rs.buckets {
		out = append(out, b...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// buildBackendFromStore constructs a fresh backend of the given kind and
// replays the table's canonical rule store into it in installation order.
// The incumbent backend is not touched: a failure at any point (including
// an injected SiteMigrationBuild fault) simply discards the partial build.
// Runs under the pipeline write lock so the store cannot move underneath
// the replay.
func (t *LookupTable) buildBackendFromStore(kind string) (Backend, error) {
	var nb Backend
	var err error
	if kind == BackendDIR24 && t.hasDesignated && !dir24SupportsFields(t.cfg.Fields) {
		// Auto-eligible multi-field table: every installed rule constrains
		// only the designated LPM field, so the flat array serves it even
		// though the configured field set would fail the pinned check.
		nb = newDIR24BackendAuto(t.cfg, t.designated)
	} else {
		nb, err = newBackend(kind, t.cfg)
	}
	if err != nil {
		return nil, err
	}
	for _, sr := range t.store.allSeqOrdered() {
		if err := failpoint.Inject(failpoint.SiteMigrationBuild); err != nil {
			return nil, fmt.Errorf("core: table %d: building %s backend: %w", t.cfg.ID, kind, err)
		}
		if err := nb.Insert(&sr.entry, sr.seq); err != nil {
			return nil, fmt.Errorf("core: table %d: building %s backend: %w", t.cfg.ID, kind, err)
		}
	}
	return nb, nil
}

// swapBackend makes nb the table's live backend: the migration commit
// boundary. The generation bump retires the table's view, so the next
// snapshot — published by the migration, or after the commit whose
// insert forced the swap — serves the new scheme and, through its
// version, invalidates both cache tiers in one step.
func (t *LookupTable) swapBackend(nb Backend, reason uint32) {
	t.backend = nb
	t.migrations.Add(1)
	t.lastReason.Store(reason)
	t.lastMig = time.Now().UnixNano()
	t.gen++
	t.publishStats()
}

// swappedBackend is what swapBackend replaced — the incumbent and the
// advisor state the swap reset — kept so a rejected commit can revert an
// inline migration.
type swappedBackend struct {
	backend Backend
	reason  uint32
	lastMig int64
}

// swapState records what a swap would replace.
func (t *LookupTable) swapState() swappedBackend {
	return swappedBackend{backend: t.backend, reason: t.lastReason.Load(), lastMig: t.lastMig}
}

// unswapBackend reverts a swap, on the rejection path of the commit whose
// insert made it: the rule store and the incumbent hold the entry set
// they held at the swap again, and the swap is not counted.
func (t *LookupTable) unswapBackend(s *swappedBackend) {
	t.backend = s.backend
	t.migrations.Add(^uint64(0))
	t.lastReason.Store(s.reason)
	t.lastMig = s.lastMig
	t.gen++
	t.publishStats()
}

// migrateOffDIR24 rebuilds the table on mbt from the rule store and swaps
// it in, inline with the Insert that made the rule set too wide for the
// incumbent flat array. Called under the pipeline write lock before the
// offending entry enters the store, so the replay holds exactly the rules
// dir24 was serving.
func (t *LookupTable) migrateOffDIR24() error {
	nb, err := t.buildBackendFromStore(BackendMBT)
	if err != nil {
		return fmt.Errorf("core: table %d: migrating off dir24: %w", t.cfg.ID, err)
	}
	t.swapBackend(nb, MigrateReasonShape)
	return nil
}

// MigrationEvent records one completed live backend migration.
type MigrationEvent struct {
	Table  openflow.TableID
	From   string
	To     string
	Reason string
}

// MigrationStats is the pipeline's backend-migration telemetry, readable
// lock-free under churn (the per-table counters are atomics shared with
// the published table view).
type MigrationStats struct {
	// Migrations counts completed live backend swaps across all tables
	// (advisor-driven and inline shape-forced).
	Migrations uint64
	// Failed counts migration attempts that aborted — build failures,
	// injected faults, budget rejections — leaving the incumbent serving.
	Failed uint64
}

// MigrationStats returns the pipeline's accumulated migration telemetry.
func (p *Pipeline) MigrationStats() MigrationStats {
	ms := MigrationStats{Failed: p.migrationsFailed.Load()}
	if view := p.tablesView.Load(); view != nil {
		for _, t := range *view {
			ms.Migrations += t.migrations.Load()
		}
	}
	return ms
}

// SetAutotunePolicy replaces the advisor's hysteresis policy. The zero
// Policy is permitted (margin 0, no dwell): useful in tests to force
// immediate migrations.
func (p *Pipeline) SetAutotunePolicy(pol autotune.Policy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tunePolicy = pol
}

// scoreCandidatesLocked scores every scheme for the table from its shape
// with the fitted model, the incumbent like its challengers. Returns the
// candidates in autotune.Schemes order plus the incumbent's score.
func (p *Pipeline) scoreCandidatesLocked(t *LookupTable) ([]autotune.Candidate, float64) {
	sig := autotune.Signals{Rules: t.rules, Masks: len(t.maskSigs), Fields: len(t.cfg.Fields)}
	inc := t.backend.Kind()
	var incScore float64
	cands := make([]autotune.Candidate, 0, len(autotune.Schemes))
	for _, kind := range autotune.Schemes {
		c := autotune.Candidate{Scheme: kind, Eligible: t.eligibleFor(kind)}
		if c.Eligible || kind == inc {
			c.Score = p.tunePolicy.Score(tuneModel.LatencyNs(kind, sig), tuneModel.MemBits(kind, sig))
		}
		if kind == inc {
			incScore = c.Score
		}
		cands = append(cands, c)
	}
	return cands, incScore
}

// adviseLocked is the advisor's verdict on one table at unix-nano time
// now: the scores and the hysteresis policy, with the dwell measured from
// the table's last migration.
func (p *Pipeline) adviseLocked(t *LookupTable, now int64) autotune.Decision {
	cands, incScore := p.scoreCandidatesLocked(t)
	return p.tunePolicy.Decide(t.backend.Kind(), incScore, cands, time.Duration(now-t.lastMig))
}

// migrateTableLocked performs one live migration under the pipeline write
// lock: build the replacement backend from the rule store (off the data
// path — concurrent lookups keep serving the published snapshot), admit
// it against the armed memory budgets, then swap at a single commit
// boundary. Exactly one snapshot publish covers the swap, so both cache
// tiers invalidate in one version bump and no lookup ever observes a
// half-migrated table.
func (p *Pipeline) migrateTableLocked(t *LookupTable, kind string, reason uint32) (MigrationEvent, error) {
	from := t.backend.Kind()
	nb, err := t.buildBackendFromStore(kind)
	if err != nil {
		p.migrationsFailed.Add(1)
		return MigrationEvent{}, err
	}
	if p.budgetsArmed() {
		// A migration is admitted like a commit: growth past an armed
		// budget is rejected and the incumbent keeps serving. A shrinking
		// migration always passes — it is the degradation path budgets want.
		newBits := statsOf(nb).TotalBits()
		oldBits := statsOf(t.backend).TotalBits()
		if newBits > oldBits {
			if t.budgetBits > 0 && newBits > t.budgetBits {
				p.migrationsFailed.Add(1)
				return MigrationEvent{}, fmt.Errorf("core: table %d: migration to %s exceeds table budget (%d > %d bits)", t.cfg.ID, kind, newBits, t.budgetBits)
			}
			if pb := p.memBudget.Load(); pb > 0 {
				if total := p.totalBitsLocked() - oldBits + newBits; total > pb {
					p.migrationsFailed.Add(1)
					return MigrationEvent{}, fmt.Errorf("core: table %d: migration to %s exceeds pipeline budget (%d > %d bits)", t.cfg.ID, kind, total, pb)
				}
			}
		}
	}
	if err := failpoint.Inject(failpoint.SiteMigrationCommit); err != nil {
		p.migrationsFailed.Add(1)
		return MigrationEvent{}, fmt.Errorf("core: table %d: committing migration to %s: %w", t.cfg.ID, kind, err)
	}
	t.swapBackend(nb, reason)
	p.win = cacheWindow{} // not a rule commit: the snapshot opens a fresh window
	p.snap.Store(p.buildSnapshotLocked())
	return MigrationEvent{Table: t.cfg.ID, From: from, To: kind, Reason: MigrateReasonName(reason)}, nil
}

// AutotuneOnce runs one advisor pass: score every auto table's candidate
// schemes and migrate the tables whose best challenger clears the
// hysteresis policy. It returns the migrations performed. Safe to call
// concurrently with lookups (migrations publish through the normal
// snapshot boundary); it serialises with mutations on the pipeline write
// lock.
func (p *Pipeline) AutotuneOnce() []MigrationEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	var events []MigrationEvent
	now := time.Now().UnixNano()
	for _, id := range p.order {
		t := p.tables[id]
		if !t.auto {
			continue
		}
		d := p.adviseLocked(t, now)
		if !d.Migrate || d.Best == t.backend.Kind() {
			continue
		}
		reason := MigrateReasonScore
		if !t.eligibleFor(t.backend.Kind()) {
			reason = MigrateReasonShape
		}
		if ev, err := p.migrateTableLocked(t, d.Best, reason); err == nil {
			events = append(events, ev)
		}
	}
	return events
}

// StartAutotune runs the advisor periodically until StopAutotune (or a
// later StartAutotune) stops it. A non-positive interval stops any
// running advisor without starting a new one. logf, when non-nil,
// receives one line per completed migration.
func (p *Pipeline) StartAutotune(interval time.Duration, logf func(format string, args ...any)) {
	p.tuneMu.Lock()
	defer p.tuneMu.Unlock()
	if p.tuneStop != nil {
		close(p.tuneStop)
		p.tuneWG.Wait()
		p.tuneStop = nil
	}
	if interval <= 0 {
		return
	}
	stop := make(chan struct{})
	p.tuneStop = stop
	p.tuneWG.Add(1)
	go func() {
		defer p.tuneWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				for _, ev := range p.AutotuneOnce() {
					if logf != nil {
						logf("autotune: table %d migrated %s -> %s (%s)", ev.Table, ev.From, ev.To, ev.Reason)
					}
				}
			}
		}
	}()
}

// StopAutotune stops the periodic advisor, waiting for an in-flight pass
// to finish. Safe to call when no advisor is running.
func (p *Pipeline) StopAutotune() {
	p.tuneMu.Lock()
	defer p.tuneMu.Unlock()
	if p.tuneStop != nil {
		close(p.tuneStop)
		p.tuneWG.Wait()
		p.tuneStop = nil
	}
}

// AdvisorCandidate is one scheme's advisor view for a table.
type AdvisorCandidate struct {
	Backend  string
	Eligible bool
	Score    float64
}

// TableAdvisorStats is the advisor's published view of one table: the
// incumbent, its shape signals and published memory bits, the scored
// candidates, and the migration history.
type TableAdvisorStats struct {
	Table      openflow.TableID
	Auto       bool
	Incumbent  string
	Rules      int
	Masks      int
	Ranges     int
	Wide       int
	MemBits    uint64
	Migrations uint64
	LastReason string
	// Candidates lists every scheme's score in autotune.Schemes order
	// (mbt, tss, lineartcam, dir24).
	Candidates []AdvisorCandidate
}

// AdvisorStats is the advisor's full report, carried as the advisor
// section of the stats report (`ofctl stats`).
type AdvisorStats struct {
	Tables     []TableAdvisorStats
	Migrations uint64
	Failed     uint64
}

// AdvisorStats assembles the advisor's current view of every table:
// signals, candidate scores, and migration history. It takes the
// pipeline write lock, so it is a control-plane polling surface, not a
// hot-path one.
func (p *Pipeline) AdvisorStats() AdvisorStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := AdvisorStats{Failed: p.migrationsFailed.Load()}
	for _, id := range p.order {
		t := p.tables[id]
		cands, _ := p.scoreCandidatesLocked(t)
		row := TableAdvisorStats{
			Table:      id,
			Auto:       t.auto,
			Incumbent:  t.backend.Kind(),
			Rules:      t.rules,
			Masks:      len(t.maskSigs),
			Ranges:     t.rangeRules,
			Wide:       t.wideRules,
			MemBits:    t.stats.Load().TotalBits(),
			Migrations: t.migrations.Load(),
			LastReason: MigrateReasonName(t.lastReason.Load()),
			Candidates: cands2advisor(cands),
		}
		out.Tables = append(out.Tables, row)
		out.Migrations += t.migrations.Load()
	}
	return out
}

func cands2advisor(cands []autotune.Candidate) []AdvisorCandidate {
	out := make([]AdvisorCandidate, len(cands))
	for i, c := range cands {
		out[i] = AdvisorCandidate{Backend: c.Scheme, Eligible: c.Eligible, Score: c.Score}
	}
	return out
}
