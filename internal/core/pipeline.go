package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ofmtl/internal/core/autotune"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// Pipeline is the multiple-table lookup pipeline of Fig. 1: packets enter
// at the lowest-numbered table and move forward through Goto-Table
// instructions, accumulating an action set and metadata on the way.
//
// The pipeline is safe for concurrent use in the reader/writer split the
// paper's hardware performs in silicon: any number of goroutines may call
// Execute and ExecuteBatch while others commit transactions and AddTable.
// Lookups run lock-free against an immutable copy-on-write snapshot
// published through an atomic pointer (RCU style); mutations serialise on
// an internal write lock and end by publishing a snapshot of what they
// wrote or by retracting the published one, which the next lookup then
// publishes, so bursts of updates pay for one publish.
// Direct mutation of a *LookupTable obtained from AddTable or Table is
// permitted only while no concurrent lookups run (e.g. during the
// single-threaded build phase); it retracts the pipeline's snapshot too.
type Pipeline struct {
	mu     sync.Mutex // serialises mutations and snapshot publishes
	tables map[openflow.TableID]*LookupTable
	order  []openflow.TableID

	// defaultBackend is the lookup backend tables receive when their
	// TableConfig does not pick one (SetDefaultBackend). Empty selects mbt.
	defaultBackend string

	// tablesView is the atomically published table list (pipeline order),
	// re-published on AddTable. It is what keeps MemoryStats lock-free:
	// readers walk the published list and each table's published
	// accounting pointer without ever touching mu.
	tablesView atomic.Pointer[[]*LookupTable]

	// snapVersion numbers published snapshots; a flow-cache entry is
	// stamped with the version its walk ran against, and a snapshot serves
	// it only inside its window (snapshot.go).
	snapVersion atomic.Uint64
	// snap is the published immutable lookup state: current, or nil
	// until the next lookup publishes it.
	snap atomic.Pointer[snapshot]
	// win is the cache window the next snapshot built opens with (guarded
	// by mu): reset by every writer but a pure rule commit, which logs
	// itself in it (snapshot.go).
	win cacheWindow
	// tiers are the optional flow-cache tiers in front of the multi-table
	// walk, in probe order: tierExact, the microflow tier, and tierMasked,
	// the megaflow tier — two instances of one structure (flowcache.go);
	// nil when disabled.
	tiers [numTiers]atomic.Pointer[flowCache]
	// workers bounds ExecuteBatch fan-out; 0 selects GOMAXPROCS.
	workers atomic.Int64
	// batch parks the persistent ExecuteBatch worker goroutines.
	batch batchEngine

	// memBudget is the process-wide memory budget in modelled bits
	// (0 = unlimited); tableBudgets counts tables carrying a budget.
	// Together they gate the commit-time admission check, so unbudgeted
	// pipelines pay two atomic loads per commit and nothing else (see
	// budget.go).
	memBudget    atomic.Uint64
	tableBudgets atomic.Int64

	// Pressure controller state: the configured cache-tier sizes the
	// controller regrows toward (guarded by mu) and its lock-free
	// telemetry counters — lifetime shrink and regrow steps, and the
	// current degradation depth.
	tierTarget   [numTiers]int
	pressShrinks atomic.Uint64
	pressRegrows atomic.Uint64
	pressSteps   atomic.Uint64

	// outcomes holds every distinct walk outcome once, keeping Execute
	// allocation-free in steady state (see intern.go).
	outcomes outcomeTable

	// dir is the flow lifecycle directory: per-flow counters, idle/hard
	// timeout state, and the ref allocator (see lifecycle.go).
	dir *flowDir

	// Group-table state: the mutable table and the immutable execution
	// view snapshots capture (see groups.go).
	groupTab   *groupTable
	groupsView atomic.Pointer[groupView]

	// Expiry sweeper state and lifecycle telemetry.
	expiryMu    sync.Mutex
	expiryStop  chan struct{}
	expiryWG    sync.WaitGroup
	expiredIdle atomic.Uint64
	expiredHard atomic.Uint64
	sweeps      atomic.Uint64

	// Flow-removed notification ring (see FlowRemovedSince).
	removedMu      sync.Mutex
	removedRing    [removedRingSize]FlowRemoved
	removedHead    uint64
	removedLost    uint64 // where the last loss counted in removedDropped ended
	removedTotal   atomic.Uint64
	removedDropped atomic.Uint64

	// Transaction telemetry (see TxCounters).
	txCommitted atomic.Uint64
	txCommands  atomic.Uint64
	txRejected  atomic.Uint64

	// infoCache serves TableInfos without re-allocating: a writer clears
	// it where it retracts or publishes the snapshot.
	infoCache []TableInfo

	// Autotune advisor state: the hysteresis policy (guarded by mu), the
	// periodic-advisor goroutine lifecycle (tuneMu, mirroring the expiry
	// sweeper), and the failed-migration counter (atomic for lock-free
	// Stats readers; completed migrations are counted per table).
	tunePolicy       autotune.Policy
	tuneMu           sync.Mutex
	tuneStop         chan struct{}
	tuneWG           sync.WaitGroup
	migrationsFailed atomic.Uint64

	// touched and marks are the last commit's touched tables and their
	// high-water marks (markTouchedLocked), reused from commit to commit;
	// guarded by mu.
	touched []*LookupTable
	marks   []int
}

// NewPipeline returns an empty pipeline: tables default to the mbt
// backend and both cache tiers are off.
func NewPipeline() *Pipeline {
	p := &Pipeline{
		tables:     make(map[openflow.TableID]*LookupTable),
		groupTab:   newGroupTable(),
		tunePolicy: autotune.DefaultPolicy(),
	}
	p.dir = newFlowDir(&p.tiers)
	p.groupsView.Store(emptyGroupView)
	return p
}

// SetDefaultBackend selects the lookup backend tables receive when their
// TableConfig does not pick one explicitly. It must be called before the
// affected tables are added; already-built tables keep their backend.
func (p *Pipeline) SetDefaultBackend(kind string) error {
	if kind != "" && !ValidBackend(kind) {
		return fmt.Errorf("core: unknown backend %q (want %v)", kind, BackendKinds())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.defaultBackend = kind
	return nil
}

// AddTable creates and registers a table from its configuration.
func (p *Pipeline) AddTable(cfg TableConfig) (*LookupTable, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.tables[cfg.ID]; dup {
		return nil, fmt.Errorf("core: pipeline already has table %d", cfg.ID)
	}
	if cfg.Backend == "" {
		cfg.Backend = p.defaultBackend
		// A process-wide default is advisory: when it names a
		// shape-restricted scheme (dir24) that cannot serve this table's
		// field set, fall back to mbt rather than failing the build. An
		// explicit TableConfig.Backend pin is a promise, not a hint, and
		// still errors below.
		if cfg.Backend != "" && !BackendSupportsFields(cfg.Backend, cfg.Fields) {
			cfg.Backend = BackendMBT
		}
	}
	t, err := NewLookupTable(cfg)
	if err != nil {
		return nil, err
	}
	if t.budgetBits > 0 {
		p.tableBudgets.Add(1)
	}
	t.dir = p.dir
	t.groups = p.groupTab
	t.pipe = p
	p.tables[cfg.ID] = t
	p.order = append(p.order, cfg.ID)
	sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
	view := make([]*LookupTable, 0, len(p.order))
	for _, id := range p.order {
		view = append(view, p.tables[id])
	}
	p.tablesView.Store(&view)
	p.retract()
	return t, nil
}

// Table returns the table with the given identifier.
func (p *Pipeline) Table(id openflow.TableID) (*LookupTable, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tables[id]
	return t, ok
}

// Tables returns the table identifiers in pipeline order.
func (p *Pipeline) Tables() []openflow.TableID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]openflow.TableID(nil), p.order...)
}

// TxCounters returns the pipeline's accumulated transaction telemetry:
// committed transactions, the commands they carried, and rejected
// (rolled-back) transactions.
func (p *Pipeline) TxCounters() TxCounters {
	return TxCounters{
		Txs:      p.txCommitted.Load(),
		Commands: p.txCommands.Load(),
		Rejected: p.txRejected.Load(),
	}
}

// SnapshotVersion returns the version of the most recently published
// lookup snapshot. Versions increase by exactly one per rebuild, so the
// difference across a window counts how often the lookup state was
// republished — a whole committed transaction accounts for at most one.
func (p *Pipeline) SnapshotVersion() uint64 { return p.snapVersion.Load() }

// Rules returns the total number of installed flow entries.
func (p *Pipeline) Rules() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, t := range p.tables {
		total += t.Rules()
	}
	return total
}

// TableInfo is one table's status snapshot.
type TableInfo struct {
	ID     openflow.TableID
	Fields []openflow.FieldID
	Rules  int
}

// TableInfos returns a consistent status view of every table in pipeline
// order, taken under the write lock so it is safe to call concurrently
// with mutations (unlike reading rule counts through Table, which
// returns the live mutable table). The returned slice is a cached
// immutable view — it is rebuilt only after a mutation, so stats polling
// does not allocate; callers must not modify it.
func (p *Pipeline) TableInfos() []TableInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.infoCache != nil {
		return p.infoCache
	}
	infos := make([]TableInfo, 0, len(p.order))
	for _, id := range p.order {
		t := p.tables[id]
		infos = append(infos, TableInfo{ID: id, Fields: t.Fields(), Rules: t.Rules()})
	}
	p.infoCache = infos
	return infos
}

// Result is the outcome of executing one packet through the pipeline.
//
// The Outputs and TablesVisited slices belong to the pipeline's interned
// copy of the outcome, shared by every Result with the same outcome; this
// is what keeps Execute allocation-free in steady state. Callers must
// treat them as immutable.
type Result struct {
	// Matched reports whether any table matched the packet.
	Matched bool
	// SentToController reports the miss path of Section IV.C.
	SentToController bool
	// Dropped reports an explicit drop (or a clear-actions with no output).
	Dropped bool
	// Outputs lists the egress ports the final action set forwards to.
	Outputs []uint32
	// TablesVisited records the walk, in order.
	TablesVisited []openflow.TableID
	// MatchedTables counts tables that produced a match.
	MatchedTables int
}

// actionSet models the OpenFlow action set: write-actions replace earlier
// actions of the same kind; clear-actions empties the set; the set runs
// when the pipeline stops going to further tables.
type actionSet struct {
	output   []uint32
	drop     bool
	setField []openflow.Action
	// group is the group the set hands the packet to; an action set holds
	// at most one group reference (later writes replace it), and at the
	// final run the group takes precedence over a plain output, as in the
	// OpenFlow action-set ordering.
	group    uint32
	hasGroup bool
	hasAny   bool
}

func (as *actionSet) write(actions []openflow.Action) {
	for _, a := range actions {
		as.hasAny = true
		switch a.Type {
		case openflow.ActionOutput:
			as.output = append(as.output[:0], a.Port)
			as.drop = false
		case openflow.ActionDrop:
			as.drop = true
			as.output = as.output[:0]
		case openflow.ActionSetField:
			as.setField = append(as.setField, a)
		case openflow.ActionGroup:
			as.group, as.hasGroup = a.Port, true
			as.drop = false
		case openflow.ActionSetQueue:
			// Modelled as a pass-through annotation; no pipeline effect.
		case openflow.ActionPushVLAN, openflow.ActionPopVLAN:
			// Header restructuring actions are applied at egress.
		}
	}
}

// clear empties the action set, retaining slice capacity so pooled sets
// stay allocation-free across packets.
func (as *actionSet) clear() {
	as.output = as.output[:0]
	as.drop = false
	as.setField = as.setField[:0]
	as.group, as.hasGroup = 0, false
	as.hasAny = false
}

// Execute classifies the header through the pipeline, mutating it as
// apply-actions and metadata instructions dictate, and returns the
// execution result. Execution starts at the lowest-numbered table.
//
// With the microflow cache enabled (SetCacheSize), repeated packets of a
// flow are served from the exact-match fast path without re-walking the
// tables; a cached Result replays the recorded outcome without
// re-mutating the header, matching data-plane behaviour (mutations apply
// to the forwarded copy, not to subsequent packets of the flow). A nil
// header carries nothing to classify and yields the miss path.
//
// Execute is lock-free against concurrent Execute and ExecuteBatch calls:
// it loads the current snapshot and classifies against its immutable
// table views. Distinct goroutines must pass distinct headers.
func (p *Pipeline) Execute(h *openflow.Header) (res Result) {
	l := ladder{s: p.loadSnapshot(), tiers: [numTiers]*flowCache{p.tiers[tierExact].Load(), p.tiers[tierMasked].Load()}, d: p.dir}
	l.exec(h, &res)
	return res
}

// walk performs the table walks that w's slots stand ready for
// (walker.begin) over the snapshot's dense view index, and leaves each
// outcome in its scratch's res. The walks go together, table by table:
// each round classifies, as one lookup group, the walks that stand at the
// lowest table any of them stands at. A walk only moves to a higher
// table, so each table classifies once per call, and walks that goto
// different tables continue in per-table groups. A traced walk (its
// ls.tr set) additionally accumulates the consulted-bits mask the
// megaflow tier installs under; every walk records its mid-walk rewrites
// (sc.rw), which the tiers revalidate by. Every control-flow decision below — which table classifies
// next, which miss policy fires — is a function of classification
// outcomes, which are functions of the traced bits, so the trace needs no
// extra terms for the walk structure itself.
func (s *snapshot) walk(w *walker, slots []int32) {
	g := &w.g
	for {
		var cur openflow.TableID
		live := false
		for _, p := range slots {
			if sc := &w.sc[p]; sc.state == walking && (!live || sc.cur < cur) {
				cur, live = sc.cur, true
			}
		}
		if !live {
			break
		}
		t := s.byID[cur]
		g.m = g.m[:0]
		for _, p := range slots {
			sc := &w.sc[p]
			if sc.state != walking || sc.cur != cur {
				continue
			}
			if t == nil {
				sc.res.SentToController, sc.state = true, walkEnded
				continue
			}
			sc.visited = append(sc.visited, cur)
			g.m = append(g.m, p)
		}
		if t == nil {
			continue
		}
		t.backend.Lookup(g)
		for _, p := range g.m {
			w.sc[p].step(t, cur, g.hs[p], &g.out[p])
		}
	}
	for _, p := range slots {
		sc := &w.sc[p]
		switch sc.state {
		case walkActions:
			sc.runActions(g.hs[p], s.groups)
		case walkEnded:
		default:
			continue
		}
		sc.res.TablesVisited, sc.res.Outputs = sc.visited, sc.outs
		sc.rp = s.outcomes.intern(&sc.res)
		sc.state = walkDone
	}
}

// step applies table cur's lookup outcome o to the walk: the table's miss
// policy, or the match's counter ref and instructions. The walk then
// stands at its next table, leaves the tables for its action set, or has
// ended.
func (sc *execScratch) step(t *LookupTable, cur openflow.TableID, h *openflow.Header, o *lookupOut) {
	res := &sc.res
	if !o.ok {
		switch t.cfg.Miss.Kind {
		case MissGoto:
			if t.cfg.Miss.Table <= cur {
				res.SentToController, sc.state = true, walkEnded
				return
			}
			sc.cur = t.cfg.Miss.Table
		case MissDrop:
			res.Dropped, sc.state = true, walkEnded
		default:
			res.SentToController, sc.state = true, walkEnded
		}
		return
	}
	res.Matched = true
	res.MatchedTables++
	if o.Ref != 0 {
		// Record the winning rule for counter attribution. The bound
		// covers a walk of ctrRefMax tables; the rare deeper walk counts
		// the first ctrRefMax rules and marks the overflow so the outcome
		// is never cached with a truncated attribution.
		if sc.nrefs < ctrRefMax {
			sc.refs[sc.nrefs] = o.Ref
			sc.nrefs++
		} else {
			sc.refOverflow = true
		}
	}
	next, hasNext := applyInstructions(h, sc, o.Instructions)
	switch {
	case !hasNext:
		sc.state = walkActions
	case next <= cur:
		// Goto must move forward; treat violations as a miss to the
		// controller rather than looping.
		res.SentToController, sc.state = true, walkEnded
	default:
		sc.cur = next
	}
}

// runActions runs the action set a walk accumulated.
func (sc *execScratch) runActions(h *openflow.Header, gv *groupView) {
	as, res := &sc.as, &sc.res
	for _, a := range as.setField {
		if a.Field.Valid() {
			h.Set(a.Field, a.Value)
		}
	}
	switch {
	case as.drop:
		res.Dropped = true
	case as.hasGroup:
		// The group takes precedence over a plain output, as in the
		// OpenFlow action-set ordering.
		runGroup(gv, as.group, sc)
	case len(as.output) > 0:
		for _, port := range as.output {
			if port == openflow.ControllerPort {
				res.SentToController = true
			} else {
				sc.outs = append(sc.outs, port)
			}
		}
	case !as.hasAny:
		// Matched but accumulated no actions: the packet has nowhere to
		// go; model as an implicit drop.
		res.Dropped = true
	}
}

// applyInstructions executes an entry's instruction list, returning the
// goto target if one is present. Mid-walk header mutations (apply-
// actions set-field, write-metadata) are recorded in sc.rw: a later table
// then matches the rewritten value while the cache key records the
// original one, so revalidation must test the written value, or treat
// rules constraining those fields conservatively (megaflow.go).
func applyInstructions(h *openflow.Header, sc *execScratch, instrs []openflow.Instruction) (openflow.TableID, bool) {
	as := &sc.as
	var next openflow.TableID
	hasNext := false
	for _, in := range instrs {
		switch in.Type {
		case openflow.InstrGotoTable:
			next, hasNext = in.Table, true
		case openflow.InstrWriteActions:
			as.write(in.Actions)
		case openflow.InstrApplyActions:
			for _, a := range in.Actions {
				switch a.Type {
				case openflow.ActionSetField:
					if a.Field.Valid() {
						h.Set(a.Field, a.Value)
						sc.rw.setField(a.Field)
					}
				case openflow.ActionOutput, openflow.ActionGroup:
					// Immediate output / group hand-off: model as joining
					// the action set (the group then runs at the final
					// action-set execution, once).
					as.write([]openflow.Action{a})
				}
			}
		case openflow.InstrClearActions:
			as.clear()
		case openflow.InstrWriteMetadata:
			h.Metadata = (h.Metadata &^ in.MetadataMask) | (in.Metadata & in.MetadataMask)
			sc.rw.writeMetadata(in.Metadata, in.MetadataMask)
		}
	}
	return next, hasNext
}

// MemoryReport assembles the full-system memory report: every backend
// memory across all tables — the quantity behind the paper's "5 Mb of
// total memory" for the 4-table prototype. The report covers the mutable
// tables; published snapshot views model the second port of a
// dual-ported memory, not extra provisioned capacity.
//
// The walk runs over the RCU snapshot's immutable views, not the live
// tables, so assembling the (potentially large) component list holds no
// lock. A retracted snapshot is published first — briefly under the write
// lock, the same publish the next lookup would otherwise pay for — but
// the component assembly itself never serialises against commits. Views
// carry every population statistic and high-water mark the cost model
// reads, so the report is identical to a locked walk of the live tables.
// For frequent polling under churn, MemoryStats is the cheap surface: it
// reads the published counters and never publishes anything.
func (p *Pipeline) MemoryReport() *memmodel.SystemReport {
	s := p.loadSnapshot()
	var r memmodel.SystemReport
	for _, id := range s.order {
		s.byID[id].AddMemory(&r)
	}
	return &r
}

// MemoryStats returns the live per-table, per-backend memory accounting.
// It is lock-free: the read path is one atomic load of the published
// table list plus one atomic load per table of the accounting the most
// recent mutation republished — it never acquires the pipeline write
// lock, so it stays readable under full control-plane churn. The same
// counters are exported over the wire as the memory section of the stats
// report.
func (p *Pipeline) MemoryStats() MemoryStats {
	out := MemoryStats{BudgetBits: p.memBudget.Load()}
	view := p.tablesView.Load()
	if view == nil {
		return out
	}
	for _, t := range *view {
		tm := t.stats.Load()
		out.Tables = append(out.Tables, *tm)
		out.TotalBits += tm.TotalBits()
	}
	return out
}
