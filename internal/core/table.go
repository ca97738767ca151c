package core

import (
	"fmt"
	"sync/atomic"

	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// MissKind selects a table's behaviour when no flow entry matches.
type MissKind int

// Miss behaviours. The paper's default is "send to controller"
// (Section IV.C).
const (
	MissController MissKind = iota + 1
	MissDrop
	MissGoto
)

// MissPolicy is a table-miss configuration.
type MissPolicy struct {
	Kind  MissKind
	Table openflow.TableID // target for MissGoto
}

// TableConfig describes one lookup table of the pipeline: its identifier,
// the header fields it searches, its miss policy, and the lookup backend
// implementing the search (empty selects the pipeline default, normally
// mbt — the paper's multi-bit-trie architecture).
type TableConfig struct {
	ID      openflow.TableID
	Fields  []openflow.FieldID
	Miss    MissPolicy
	Backend string
	// BudgetBits is the table's memory budget in modelled bits
	// (0 = unlimited). Commits that would grow the table's accounting
	// past it are rejected with a *BudgetError; SetTableBudget can
	// change it at runtime.
	BudgetBits uint64
}

// LookupTable is one OpenFlow lookup table of the architecture. The
// scheme-independent shell owns the configuration, the control-plane rule
// store the transactional API resolves non-strict commands against, the
// view snapshots serve, and the published memory accounting; the
// data-plane search itself is delegated to the configured Backend.
type LookupTable struct {
	cfg     TableConfig
	backend Backend
	rules   int

	// fieldsView is the immutable slice Fields() serves without
	// re-allocating.
	fieldsView []openflow.FieldID

	// store holds the canonical copies of the installed flow entries —
	// the control-plane view the transactional API resolves match-based
	// (non-strict) modify and delete commands against. Published views do
	// not carry it: they serve Classify only.
	store ruleStore

	// gen counts successful mutations; view is the table as published at
	// gen == viewGen, reused by every snapshot until the table changes.
	// Only writers read them, under the pipeline write lock.
	gen     uint64
	view    *LookupTable
	viewGen uint64

	// pipe is the pipeline the table was added to; nil for standalone
	// tables. A direct Insert or Remove retracts its snapshot.
	pipe *Pipeline

	// stats is the table's published memory accounting, republished after
	// every successful mutation. Readers (Pipeline.MemoryStats, snapshot
	// builds) load the pointer without taking any lock.
	stats atomic.Pointer[TableMemory]

	// budgetBits is the table's memory budget in bits (0 = unlimited),
	// checked at commit time against the backend's live accounting.
	// Guarded by the pipeline write lock like all mutation state; the
	// published TableMemory carries a copy for lock-free readers.
	budgetBits uint64

	// dir is the owning pipeline's lifecycle directory; nil for standalone
	// tables, whose entries then carry Ref 0 (no counter attribution, no
	// timeouts). Set by Pipeline.AddTable; guarded like all mutation state.
	dir *flowDir

	// groups is the owning pipeline's group table; nil for standalone
	// tables, which then skip group reference accounting.
	groups *groupTable

	// suspendPublish defers stats publication during a multi-command
	// transaction: the commit republishes once per touched table instead
	// of once per primitive mutation, which keeps a 256-command commit
	// from paying 256 accounting walks. statsDirty records that a flush
	// is owed. Both are guarded by the pipeline write lock (or the
	// single-threaded build phase), like all mutation state.
	suspendPublish bool
	statsDirty     bool

	// auto marks a table configured with the "auto" pseudo-backend: the
	// autotune advisor (autotune.go) may migrate its concrete backend
	// live as the rule set's shape evolves.
	auto bool

	// designated is the table's dir24 candidate field — the first
	// configured 32-bit longest-prefix-match field — and hasDesignated
	// whether one exists. A table is dir24-eligible under auto exactly
	// while every installed rule constrains only the designated field.
	designated    openflow.FieldID
	hasDesignated bool

	// Rule-set shape counters, maintained incrementally by Insert and
	// Remove under the pipeline write lock. maskSigs counts rules per
	// distinct match-mask signature (the tuple count a TSS backend
	// would hold); rangeRules counts rules carrying a range match;
	// wideRules counts rules constraining any field beyond the
	// designated one (each such rule blocks dir24 eligibility).
	maskSigs   map[uint64]int
	rangeRules int
	wideRules  int

	// Advisor state (autotune.go). lastMig is the unix-nano stamp of the
	// last backend migration (the dwell clock), guarded by the pipeline
	// write lock. migrations and lastReason are atomics so lock-free
	// Stats readers can report them under churn.
	lastMig    int64
	migrations atomic.Uint64
	lastReason atomic.Uint32
}

// NewLookupTable builds a table from its configuration.
func NewLookupTable(cfg TableConfig) (*LookupTable, error) {
	if len(cfg.Fields) == 0 {
		return nil, fmt.Errorf("core: table %d has no fields", cfg.ID)
	}
	if cfg.Miss.Kind == 0 {
		cfg.Miss = MissPolicy{Kind: MissController}
	}
	if len(cfg.Fields) > 32 {
		return nil, fmt.Errorf("core: table %d has %d fields, maximum 32", cfg.ID, len(cfg.Fields))
	}
	seen := make(map[openflow.FieldID]bool, len(cfg.Fields))
	for _, f := range cfg.Fields {
		if !f.Valid() {
			return nil, fmt.Errorf("core: table %d: invalid field %d", cfg.ID, int(f))
		}
		if seen[f] {
			return nil, fmt.Errorf("core: table %d lists field %s twice", cfg.ID, f)
		}
		seen[f] = true
	}
	t := &LookupTable{
		cfg:        cfg,
		fieldsView: append([]openflow.FieldID(nil), cfg.Fields...),
		budgetBits: cfg.BudgetBits,
		maskSigs:   make(map[uint64]int),
	}
	for _, f := range cfg.Fields {
		if f.Bits() == 32 && f.Method() == openflow.LongestPrefixMatch {
			t.designated, t.hasDesignated = f, true
			break
		}
	}
	// The "auto" pseudo-kind starts every table on mbt — the one scheme
	// that serves any field set — and leaves scheme changes to the
	// autotune advisor's live migrations.
	kind := cfg.Backend
	if kind == BackendAuto {
		t.auto = true
		kind = BackendMBT
	}
	backend, err := newBackend(kind, cfg)
	if err != nil {
		return nil, err
	}
	t.backend = backend
	t.publishStats()
	return t, nil
}

// ID returns the table identifier.
func (t *LookupTable) ID() openflow.TableID { return t.cfg.ID }

// Fields returns the searched fields in configuration order. The returned
// slice is a cached immutable view (field sets are fixed at table
// construction); callers must not modify it.
func (t *LookupTable) Fields() []openflow.FieldID {
	return t.fieldsView
}

// Miss returns the miss policy.
func (t *LookupTable) Miss() MissPolicy { return t.cfg.Miss }

// Rules returns the number of installed flow entries.
func (t *LookupTable) Rules() int { return t.rules }

// Backend returns the table's lookup backend kind.
func (t *LookupTable) Backend() string { return t.backend.Kind() }

// matchFor returns the entry's constraint on field f, or an explicit
// wildcard when the entry leaves f unconstrained.
func matchFor(e *openflow.FlowEntry, f openflow.FieldID) openflow.Match {
	if m, ok := e.Match(f); ok {
		return m
	}
	return openflow.Any(f)
}

// checkCoverage verifies the entry constrains only fields this table
// searches — anything else cannot be represented and is a configuration
// error.
func (t *LookupTable) checkCoverage(e *openflow.FlowEntry) error {
	for _, m := range e.Matches {
		covered := false
		for _, f := range t.cfg.Fields {
			if m.Field == f {
				covered = true
				break
			}
		}
		if !covered && m.Kind != openflow.MatchAny {
			return fmt.Errorf("core: table %d does not search field %s", t.cfg.ID, m.Field)
		}
	}
	return nil
}

// publishStats republishes the table's memory accounting from the
// backend's memory statement. It runs after every successful mutation
// (under the pipeline write lock, or during the single-threaded build
// phase), so lock-free readers always observe the accounting of a fully
// applied state. Inside a transaction the publication is deferred to the
// commit (see suspendPublish): readers keep the pre-commit figures until
// the whole batch has applied — the accounting analogue of the one
// snapshot publish per commit.
func (t *LookupTable) publishStats() {
	if t.suspendPublish {
		t.statsDirty = true
		return
	}
	tm := &TableMemory{
		Table:        t.cfg.ID,
		Backend:      t.backend.Kind(),
		Rules:        t.rules,
		BudgetBits:   t.budgetBits,
		BackendStats: statsOf(t.backend),
	}
	t.stats.Store(tm)
}

// Insert installs a flow entry. The table retains no caller memory: the
// entry is copied into the table's rule store, and the data-plane
// structures reference the stored copy, so callers (e.g. wire decoders)
// may reuse the entry's slices immediately.
func (t *LookupTable) Insert(e *openflow.FlowEntry) error {
	_, err := t.insert(e)
	if t.pipe != nil {
		t.pipe.retract()
	}
	return err
}

// insert installs e as a new rule — a fresh install sequence and
// lifecycle record — and returns its stored form.
func (t *LookupTable) insert(e *openflow.FlowEntry) (*storedRule, error) {
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("core: table %d insert: %w", t.cfg.ID, err)
	}
	if err := t.checkCoverage(e); err != nil {
		return nil, err
	}
	// A rule constraining more than the designated LPM field cannot be
	// represented by a dir24 incumbent. Under auto the table migrates
	// off dir24 inline — rebuilding a generic backend from the rule
	// store before this insert proceeds — instead of erroring.
	if t.auto && t.entryBlocksDIR24(e) && t.backend.Kind() == BackendDIR24 {
		if err := t.migrateOffDIR24(); err != nil {
			return nil, err
		}
	}
	sr := t.store.add(e)
	// The lifecycle ref is stamped into the stored entry BEFORE the
	// backend insert: backends copy the entry by value, so the ref must be
	// present when the copy is taken for lookups to attribute matches.
	if t.dir != nil {
		sr.entry.Ref = t.dir.alloc(&sr.entry, t.cfg.ID, sr.entry.IdleTimeout, sr.entry.HardTimeout)
	}
	if err := t.link(sr); err != nil {
		if t.dir != nil {
			t.dir.free(sr.entry.Ref)
		}
		t.store.remove(sr)
		return nil, err
	}
	return sr, nil
}

// link puts a stored rule into the data plane: its group references and
// its backend entry, under the rule's own install sequence.
func (t *LookupTable) link(sr *storedRule) error {
	if t.groups != nil {
		if err := t.groups.acquire(sr.entry.Instructions); err != nil {
			return err
		}
	}
	if err := t.backend.Insert(&sr.entry, sr.seq); err != nil {
		if t.groups != nil {
			t.groups.release(sr.entry.Instructions)
		}
		return err
	}
	t.rules++
	t.trackShape(&sr.entry, +1)
	t.gen++
	t.publishStats()
	return nil
}

// Remove uninstalls a flow entry previously installed with Insert. The
// entry must carry the same matches, priority and instructions.
func (t *LookupTable) Remove(e *openflow.FlowEntry) error {
	sr, err := t.installed(e)
	if err != nil {
		return err
	}
	if err := t.unlink(sr); err != nil {
		return err
	}
	if t.dir != nil {
		t.dir.free(sr.entry.Ref)
	}
	if t.pipe != nil {
		t.pipe.retract()
	}
	return nil
}

// installed resolves an entry to the stored rule with the same canonical
// identity: priority, matches and instructions. The rule store is
// consulted, not the backend: it keys on the exact canonical identity,
// where a backend may resolve structurally (the mbt searchers treat an
// exact value and a full-width prefix as the same stored value).
func (t *LookupTable) installed(e *openflow.FlowEntry) (*storedRule, error) {
	if err := t.checkCoverage(e); err != nil {
		return nil, err
	}
	canon := canonicalEntry(e)
	sr := t.store.findExact(&canon)
	if sr == nil {
		return nil, fmt.Errorf("core: table %d remove: entry not installed", t.cfg.ID)
	}
	return sr, nil
}

// unlink takes a stored rule out of the store and the data plane. Its
// lifecycle record stays allocated — the caller frees it, or reinstates
// the rule — and its ref stays stamped in the entry: expiry records map
// removals back to their sweep candidates by it.
func (t *LookupTable) unlink(sr *storedRule) error {
	// The backend removal goes through the STORED entry: backends that
	// index on the full entry value (mbt bindings) took their copy with
	// the lifecycle ref stamped in.
	if err := t.backend.Remove(&sr.entry); err != nil {
		return err
	}
	if t.groups != nil {
		t.groups.release(sr.entry.Instructions)
	}
	t.trackShape(&sr.entry, -1)
	t.store.remove(sr)
	t.rules--
	t.gen++
	t.publishStats()
	return nil
}

// MatchResult is a successful classification.
type MatchResult struct {
	Instructions []openflow.Instruction
	Priority     int
	// Ref is the winning flow's lifecycle slot (0 when the table is not
	// attached to a pipeline); the walk collects it for counter
	// attribution.
	Ref uint32
}

// Classify runs the table's lookup backend for one packet header,
// returning the winning flow entry's instructions. Ties on priority
// resolve to the earliest installed entry, whichever backend serves the
// table. It is a lookup group of one; its scratch comes from walkerPool.
func (t *LookupTable) Classify(h *openflow.Header) (MatchResult, bool) {
	w := walkerPool.Get().(*walker)
	m, ok := w.g.lookupOne(t.backend, h, nil)
	w.release(1)
	walkerPool.Put(w)
	return m, ok
}

// viewLocked returns the table as snapshots serve it, publishing a new
// view only when the table changed since the last one.
func (t *LookupTable) viewLocked() *LookupTable {
	if t.view == nil || t.viewGen != t.gen {
		t.view, t.viewGen = t.publish(), t.gen
	}
	return t.view
}

// publish returns the table as a snapshot serves it: the configuration
// and an immutable view of the backend (see Backend.Publish), so it can
// serve concurrent Classify calls while the original keeps taking
// updates.
func (t *LookupTable) publish() *LookupTable {
	c := &LookupTable{
		cfg:        t.cfg,
		backend:    t.backend.Publish(),
		rules:      t.rules,
		fieldsView: t.fieldsView,
	}
	// The rule store and the published accounting are deliberately left
	// behind: a published table serves Classify inside a snapshot and
	// takes no mutations, and MemoryStats reads the live table.
	return c
}

// AddMemory contributes the table's memories to a system report. The
// component set depends on the backend: the default mbt scheme reports
// its field searchers, index-calculation store and action table; the
// other schemes report their own structures. The components are the
// backend's memory statement, the same one the table's published
// Memory() bits sum.
func (t *LookupTable) AddMemory(r *memmodel.SystemReport) {
	t.backend.memory(&memAccount{report: r, prefix: fmt.Sprintf("table%d", t.cfg.ID)})
}

// Searcher returns the searcher handling field f when the table runs the
// default mbt backend; other backends have no per-field searchers.
func (t *LookupTable) Searcher(f openflow.FieldID) (FieldSearcher, bool) {
	if b, ok := t.backend.(*mbtBackend); ok {
		return b.searcher(f)
	}
	return nil, false
}

// shortFieldName compacts field names for memory-report component names.
func shortFieldName(f openflow.FieldID) string {
	switch f {
	case openflow.FieldVLANID:
		return "vlan"
	case openflow.FieldEthDst:
		return "ethdst"
	case openflow.FieldEthSrc:
		return "ethsrc"
	case openflow.FieldInPort:
		return "inport"
	case openflow.FieldIPv4Dst:
		return "ipv4dst"
	case openflow.FieldIPv4Src:
		return "ipv4src"
	case openflow.FieldMetadata:
		return "metadata"
	case openflow.FieldSrcPort:
		return "sport"
	case openflow.FieldDstPort:
		return "dport"
	case openflow.FieldIPProto:
		return "proto"
	default:
		return fmt.Sprintf("f%d", int(f))
	}
}
