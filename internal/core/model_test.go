package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"ofmtl/internal/bitops"
	. "ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

// pipelineModel is the executable specification every Pipeline
// configuration is checked against (driver_test.go): per-table rule
// stores with OpenFlow flow-mod resolution, a priority scan per table
// (highest priority, earliest install on ties), the goto / action-set /
// metadata walk, all and indirect groups, idle and hard timeouts on a
// logical clock, and per-rule packet and byte counts.
// It has no caches, backends, snapshots, shards or timer wheels: whatever
// those do, the answers must be the ones computed here.
//
// Models are values: apply returns a new model and leaves the receiver
// untouched, so the pre-commit state stays at hand for rejected commits
// and for readers racing a commit.
type pipelineModel struct {
	tables map[openflow.TableID]*modelTable
	order  []openflow.TableID
	groups map[uint32]Group
	clock  int64
	nextID uint32

	// Transaction and lifecycle telemetry the pipeline must report.
	txs, cmds, rejected      uint64
	expiredIdle, expiredHard uint64
	sweeps                   uint64
}

// modelTable is one table: its configuration and its rules in install
// order.
type modelTable struct {
	cfg   TableConfig
	rules []*modelRule
}

// modelRule is one installed flow. e is canonical (explicit wildcards
// dropped, prefix host bits masked, matches sorted by field, empty
// action lists nil) and e.Ref carries the rule's model id, which is how
// the walk names the rules it counts.
type modelRule struct {
	e           openflow.FlowEntry
	born, last  int64
	pkts, bytes uint64
}

func newPipelineModel(cfgs []TableConfig, clock int64) *pipelineModel {
	m := &pipelineModel{tables: map[openflow.TableID]*modelTable{}, groups: map[uint32]Group{}, clock: clock}
	for _, c := range cfgs {
		m.tables[c.ID] = &modelTable{cfg: c}
		m.order = append(m.order, c.ID)
	}
	slices.Sort(m.order)
	return m
}

// clone copies the model deeply enough that applying commands, counting
// packets or expiring flows on the copy leaves the original unchanged.
func (m *pipelineModel) clone() *pipelineModel {
	c := *m
	c.tables = make(map[openflow.TableID]*modelTable, len(m.tables))
	for id, t := range m.tables {
		nt := &modelTable{cfg: t.cfg}
		for _, r := range t.rules {
			cp := *r
			nt.rules = append(nt.rules, &cp)
		}
		c.tables[id] = nt
	}
	c.groups = make(map[uint32]Group, len(m.groups))
	for id, g := range m.groups {
		c.groups[id] = g
	}
	return &c
}

// classify is the priority scan: the highest-priority rule matching h,
// the earliest installed on ties (nil on a miss).
func (t *modelTable) classify(h *openflow.Header) *modelRule {
	var best *modelRule
	for _, r := range t.rules {
		if r.e.MatchesHeader(h) && (best == nil || r.e.Priority > best.e.Priority) {
			best = r
		}
	}
	return best
}

func (m *pipelineModel) insert(t *modelTable, e openflow.FlowEntry) {
	m.nextID++
	e.Ref = m.nextID
	t.rules = append(t.rules, &modelRule{e: e, born: m.clock})
}

func (t *modelTable) remove(r *modelRule) {
	t.rules = slices.DeleteFunc(t.rules, func(x *modelRule) bool { return x == r })
}

// modelCanon renders an entry the way a table stores it.
func modelCanon(e *openflow.FlowEntry) openflow.FlowEntry {
	cp := *e
	cp.Ref = 0
	cp.Matches = nil
	for _, mt := range e.Matches {
		if mt.Kind != openflow.MatchAny {
			cp.Matches = append(cp.Matches, mt.Canon())
		}
	}
	sort.Slice(cp.Matches, func(i, j int) bool { return cp.Matches[i].Field < cp.Matches[j].Field })
	cp.Instructions = slices.Clone(e.Instructions)
	for i := range cp.Instructions {
		cp.Instructions[i].Actions = nil
		if len(e.Instructions[i].Actions) > 0 {
			cp.Instructions[i].Actions = slices.Clone(e.Instructions[i].Actions)
		}
	}
	return cp
}

// bounds renders a constraint on a field of at most 64 bits as the
// inclusive interval of values it admits; a missing constraint admits
// the whole field.
func bounds(f openflow.FieldID, mt openflow.Match, ok bool) (lo, hi uint64) {
	full := bitops.LowMask64(f.Bits())
	if !ok {
		return 0, full
	}
	switch mt.Kind {
	case openflow.MatchExact:
		return mt.Value.Lo, mt.Value.Lo
	case openflow.MatchPrefix:
		mask := bitops.Mask64(mt.PrefixLen, f.Bits())
		return mt.Value.Lo & mask, mt.Value.Lo&mask | full&^mask
	case openflow.MatchRange:
		return mt.Lo, mt.Hi
	}
	return 0, full
}

// selected is OpenFlow non-strict selection: every selector field's
// interval contains the rule's, and the cookie agrees on the mask.
func selected(e *openflow.FlowEntry, sel []openflow.Match, cookie, mask uint64) bool {
	if (e.Cookie^cookie)&mask != 0 {
		return false
	}
	for _, s := range sel {
		slo, shi := bounds(s.Field, s, s.Kind != openflow.MatchAny)
		rm, ok := e.Match(s.Field)
		rlo, rhi := bounds(s.Field, rm, ok)
		if rlo < slo || rhi > shi {
			return false
		}
	}
	return true
}

// kindAllowed is the per-method match-kind rule every backend enforces.
func kindAllowed(mt openflow.Match) bool {
	switch mt.Field.Method() {
	case openflow.ExactMatch:
		return mt.Kind == openflow.MatchExact || mt.Kind == openflow.MatchAny ||
			mt.Kind == openflow.MatchPrefix && mt.PrefixLen == mt.Field.Bits()
	case openflow.LongestPrefixMatch:
		return mt.Kind != openflow.MatchRange
	default:
		return mt.Kind != openflow.MatchPrefix
	}
}

// groupsIn lists the groups an instruction list references.
func groupsIn(instrs []openflow.Instruction) []uint32 {
	var ids []uint32
	for _, in := range instrs {
		for _, a := range in.Actions {
			if a.Type == openflow.ActionGroup {
				ids = append(ids, a.Port)
			}
		}
	}
	return ids
}

// apply resolves a transaction against a copy of the model. It returns
// the new model and the transaction's [commands, added, replaced,
// modified, deleted] counts, or ok = false when the pipeline must reject
// the transaction whole (the receiver is unchanged either way).
func (m *pipelineModel) apply(cmds []FlowCmd) (next *pipelineModel, counts [5]int, ok bool) {
	for i := range cmds {
		c := &cmds[i]
		t := m.tables[c.Table]
		if t == nil || c.Entry.Validate() != nil {
			return nil, counts, false
		}
		if c.Op == CmdAdd || c.Op == CmdRemoveExact {
			for _, mt := range c.Entry.Matches {
				if mt.Kind != openflow.MatchAny && !slices.Contains(t.cfg.Fields, mt.Field) || !kindAllowed(mt) {
					return nil, counts, false
				}
			}
		}
		if c.Op == CmdAdd || c.Op == CmdModify {
			for _, id := range groupsIn(c.Entry.Instructions) {
				if _, ok := m.groups[id]; !ok {
					return nil, counts, false
				}
			}
		}
	}
	n := m.clone()
	counts[0] = len(cmds)
	for i := range cmds {
		c := &cmds[i]
		t := n.tables[c.Table]
		canon := modelCanon(&c.Entry)
		strict := func(r *modelRule) bool {
			return r.e.Priority == canon.Priority && reflect.DeepEqual(r.e.Matches, canon.Matches)
		}
		switch c.Op {
		case CmdAdd:
			for _, r := range slices.Clone(t.rules) {
				if strict(r) {
					t.remove(r)
					counts[2]++
				}
			}
			n.insert(t, canon)
			counts[1]++
		case CmdModify:
			for _, r := range slices.Clone(t.rules) {
				if selected(&r.e, c.Entry.Matches, c.Entry.Cookie, c.CookieMask) {
					mod := r.e
					mod.Instructions = modelCanon(&c.Entry).Instructions
					t.remove(r)
					n.insert(t, mod)
					counts[3]++
				}
			}
		case CmdDelete, CmdDeleteStrict:
			for _, r := range slices.Clone(t.rules) {
				hit := selected(&r.e, c.Entry.Matches, c.Entry.Cookie, c.CookieMask)
				if c.Op == CmdDeleteStrict {
					hit = strict(r) && (r.e.Cookie^c.Entry.Cookie)&c.CookieMask == 0
				}
				if hit {
					t.remove(r)
					counts[4]++
				}
			}
		case CmdRemoveExact:
			i := slices.IndexFunc(t.rules, func(r *modelRule) bool {
				return strict(r) && reflect.DeepEqual(r.e.Instructions, canon.Instructions)
			})
			if i < 0 {
				return nil, counts, false
			}
			t.remove(t.rules[i])
			counts[4]++
		default:
			return nil, counts, false
		}
	}
	n.txs++
	n.cmds += uint64(len(cmds))
	return n, counts, true
}

// modelActionSet is the OpenFlow action set: one output, a drop flag,
// at most one group (which outranks the output), set-fields in order.
type modelActionSet struct {
	out      []uint32
	drop     bool
	group    uint32
	hasGroup bool
	any      bool
}

func (as *modelActionSet) write(actions []openflow.Action) {
	for _, a := range actions {
		as.any = true
		switch a.Type {
		case openflow.ActionOutput:
			as.out, as.drop = []uint32{a.Port}, false
		case openflow.ActionDrop:
			as.out, as.drop = nil, true
		case openflow.ActionGroup:
			as.group, as.hasGroup, as.drop = a.Port, true, false
		}
	}
}

// walk classifies a header: the verdict the pipeline must return, and
// the rules whose counters the packet advances. h is the model's copy;
// apply-actions and metadata writes mutate it as the walk proceeds.
func (m *pipelineModel) walk(h openflow.Header) (res Result, hit []*modelRule) {
	var as modelActionSet
	cur := m.order[0]
	for {
		t := m.tables[cur]
		if t == nil {
			res.SentToController = true
			return res, hit
		}
		res.TablesVisited = append(res.TablesVisited, cur)
		r := t.classify(&h)
		if r == nil {
			switch t.cfg.Miss.Kind {
			case MissGoto:
				if t.cfg.Miss.Table > cur {
					cur = t.cfg.Miss.Table
					continue
				}
				res.SentToController = true
			case MissDrop:
				res.Dropped = true
			default:
				res.SentToController = true
			}
			return res, hit
		}
		res.Matched = true
		res.MatchedTables++
		hit = append(hit, r)
		var next openflow.TableID
		hasNext := false
		for _, in := range r.e.Instructions {
			switch in.Type {
			case openflow.InstrGotoTable:
				next, hasNext = in.Table, true
			case openflow.InstrWriteActions:
				as.write(in.Actions)
			case openflow.InstrApplyActions:
				for _, a := range in.Actions {
					switch a.Type {
					case openflow.ActionSetField:
						h.Set(a.Field, a.Value)
					case openflow.ActionOutput, openflow.ActionGroup:
						as.write([]openflow.Action{a})
					}
				}
			case openflow.InstrClearActions:
				as = modelActionSet{}
			case openflow.InstrWriteMetadata:
				h.Metadata = h.Metadata&^in.MetadataMask | in.Metadata&in.MetadataMask
			}
		}
		if !hasNext {
			break
		}
		if next <= cur {
			res.SentToController = true
			return res, hit
		}
		cur = next
	}
	switch {
	case as.drop:
		res.Dropped = true
	case as.hasGroup:
		g := m.groups[as.group]
		buckets := g.Buckets
		if g.Type == GroupIndirect {
			buckets = buckets[:min(1, len(buckets))]
		}
		emitted := false
		for _, b := range buckets {
			if slices.ContainsFunc(b.Actions, func(a openflow.Action) bool { return a.Type == openflow.ActionDrop }) {
				continue
			}
			for _, a := range b.Actions {
				if a.Type == openflow.ActionOutput {
					emitted = true
					emit(&res, a.Port)
				}
			}
		}
		if !emitted && !res.SentToController {
			res.Dropped = true
		}
	case len(as.out) > 0:
		emit(&res, as.out[0])
	case !as.any:
		res.Dropped = true
	}
	return res, hit
}

// emit forwards to a port; the controller port sets the verdict instead.
func emit(r *Result, port uint32) {
	if port == openflow.ControllerPort {
		r.SentToController = true
	} else {
		r.Outputs = append(r.Outputs, port)
	}
}

// count charges one packet to the rules its walk matched.
func (m *pipelineModel) count(hit []*modelRule, pktLen uint32) {
	bytes := uint64(pktLen)
	if bytes == 0 {
		bytes = 64
	}
	for _, r := range hit {
		r.pkts++
		r.bytes += bytes
		r.last = m.clock
	}
}

// countIDs charges one packet to the rules with the given model ids
// that are still installed.
func (m *pipelineModel) countIDs(ids []uint32, pktLen uint32) {
	var hit []*modelRule
	for _, t := range m.tables {
		for _, r := range t.rules {
			if slices.Contains(ids, r.e.Ref) {
				hit = append(hit, r)
			}
		}
	}
	m.count(hit, pktLen)
}

// sweep advances the clock to now and expires, on a copy, every flow
// whose idle deadline (last packet, or install, plus idle) or hard
// deadline (install plus hard) has passed. It returns the copy and the
// flow-removed records the pipeline must emit, in no particular order.
func (m *pipelineModel) sweep(now int64) (*pipelineModel, []FlowRemoved) {
	n := m.clone()
	n.clock = now
	var out []FlowRemoved
	for _, id := range n.order {
		t := n.tables[id]
		for _, r := range slices.Clone(t.rules) {
			idle, hard := int64(r.e.IdleTimeout), int64(r.e.HardTimeout)
			due := idle > 0 && max(r.last, r.born)+idle <= now || hard > 0 && r.born+hard <= now
			if !due {
				continue
			}
			reason := FlowRemovedIdleTimeout
			if hard > 0 && r.born+hard <= now {
				reason = FlowRemovedHardTimeout
				n.expiredHard++
			} else {
				n.expiredIdle++
			}
			e := r.e
			out = append(out, FlowRemoved{Table: id, Reason: reason, DurationSec: uint32(max(now-r.born, 0)),
				Packets: r.pkts, Bytes: r.bytes, Entry: &e})
			t.remove(r)
		}
	}
	if len(out) > 0 {
		n.txs++
		n.cmds += uint64(len(out))
		n.sweeps++
	}
	return n, out
}

// groupMod applies an add (op 0), modify (1) or delete (2) of group g,
// reporting whether the pipeline must accept it. It mirrors the rules:
// adding an existing id, modifying a missing one, deleting a missing or
// still-referenced one, or an ill-formed group are errors.
func (m *pipelineModel) groupMod(op int, g Group) bool {
	_, exists := m.groups[g.ID]
	switch op {
	case 0, 1:
		if exists != (op == 1) || !modelGroupValid(&g) {
			return false
		}
		m.groups[g.ID] = g // the driver never touches g again
	default:
		if !exists {
			return false
		}
		for _, t := range m.tables {
			for _, r := range t.rules {
				if slices.Contains(groupsIn(r.e.Instructions), g.ID) {
					return false
				}
			}
		}
		delete(m.groups, g.ID)
	}
	return true
}

func modelGroupValid(g *Group) bool {
	if g.Type != GroupAll && (g.Type != GroupIndirect || len(g.Buckets) != 1) {
		return false
	}
	for _, b := range g.Buckets {
		for _, a := range b.Actions {
			if a.Type != openflow.ActionOutput && a.Type != openflow.ActionDrop && a.Type != openflow.ActionSetField {
				return false
			}
		}
	}
	return true
}

// ruleKey names a flow by its strict identity, unique within a table.
func ruleKey(table openflow.TableID, e *openflow.FlowEntry) string {
	return fmt.Sprintf("%d/%d/%v", table, e.Priority, e.Matches)
}
