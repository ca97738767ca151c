package core

import (
	"fmt"
	"sort"
	"sync"

	"ofmtl/internal/openflow"
)

// Group tables, the indirection layer behind ActionGroup. A flow's
// action set (or an apply-actions list) can hand the packet to a group;
// the group's buckets then decide the outputs. Two OpenFlow group types
// are modelled:
//
//   - GroupAll: every bucket processes a copy of the packet (the
//     multicast/flood shape) — each bucket's outputs are appended.
//   - GroupIndirect: exactly one bucket, shared by many flows (the
//     next-hop shape) — repointing the bucket retargets them all.
//
// Groups are pipeline-level state, mutated outside flow transactions.
// Each mutation retracts the published snapshot, so the first lookup
// after a group-mod publishes a new one, and thereby invalidates both
// cache tiers — cached results that baked in the old buckets cannot be
// served again.
//
// Flows referencing a group hold a reference on it from insert to
// removal; deleting a referenced group is refused, so a lookup can
// never race with its target group disappearing.

// GroupType enumerates the supported group-table entry types.
type GroupType uint8

// Group types (mirroring OFPGT_*).
const (
	GroupAll      GroupType = 1
	GroupIndirect GroupType = 2
)

// String names the group type.
func (t GroupType) String() string {
	switch t {
	case GroupAll:
		return "all"
	case GroupIndirect:
		return "indirect"
	default:
		return "unknown"
	}
}

// Bucket is one action list within a group.
type Bucket struct {
	Actions []openflow.Action
}

// Group is one group-table entry.
type Group struct {
	ID      uint32
	Type    GroupType
	Buckets []Bucket
}

// validate checks a group definition: a known type, bucket shape
// matching the type, and bucket actions drawn from the supported set
// (output, drop, set-field — groups do not chain into groups).
func (g *Group) validate() error {
	switch g.Type {
	case GroupAll:
	case GroupIndirect:
		if len(g.Buckets) != 1 {
			return fmt.Errorf("core: indirect group %d must have exactly one bucket, got %d", g.ID, len(g.Buckets))
		}
	default:
		return fmt.Errorf("core: group %d has unknown type %d", g.ID, uint8(g.Type))
	}
	for bi, b := range g.Buckets {
		for _, a := range b.Actions {
			switch a.Type {
			case openflow.ActionOutput, openflow.ActionDrop, openflow.ActionSetField:
			case openflow.ActionGroup:
				return fmt.Errorf("core: group %d bucket %d chains into group %d; group chaining is not supported", g.ID, bi, a.Port)
			default:
				return fmt.Errorf("core: group %d bucket %d has unsupported action %s", g.ID, bi, a.Type)
			}
		}
	}
	return nil
}

// clone deep-copies a group so installed state never aliases caller
// slices.
func (g *Group) clone() *Group {
	cp := &Group{ID: g.ID, Type: g.Type}
	if len(g.Buckets) > 0 {
		cp.Buckets = make([]Bucket, len(g.Buckets))
		for i, b := range g.Buckets {
			if len(b.Actions) > 0 {
				cp.Buckets[i].Actions = append([]openflow.Action(nil), b.Actions...)
			}
		}
	}
	return cp
}

// groupTable is the pipeline's mutable group state: the installed
// groups and, per group, how many installed flows reference it.
// Mutations happen under the pipeline write lock; the table carries its
// own mutex so lock-free readers of counts (LifecycleStats) stay safe.
type groupTable struct {
	mu      sync.Mutex
	entries map[uint32]*Group
	refs    map[uint32]int
}

func newGroupTable() *groupTable {
	return &groupTable{
		entries: make(map[uint32]*Group),
		refs:    make(map[uint32]int),
	}
}

// groupRefs counts the ActionGroup references in an instruction list.
func groupRefs(instrs []openflow.Instruction, fn func(id uint32)) {
	for _, in := range instrs {
		for _, a := range in.Actions {
			if a.Type == openflow.ActionGroup {
				fn(a.Port)
			}
		}
	}
}

// check verifies every group an instruction list references exists.
func (gt *groupTable) check(instrs []openflow.Instruction) error {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	var err error
	groupRefs(instrs, func(id uint32) {
		if err == nil && gt.entries[id] == nil {
			err = fmt.Errorf("core: flow references unknown group %d", id)
		}
	})
	return err
}

// acquire takes one reference per ActionGroup in the instruction list,
// failing (without side effects) if any referenced group is missing.
func (gt *groupTable) acquire(instrs []openflow.Instruction) error {
	if err := gt.check(instrs); err != nil {
		return err
	}
	gt.mu.Lock()
	groupRefs(instrs, func(id uint32) { gt.refs[id]++ })
	gt.mu.Unlock()
	return nil
}

// release drops the references acquire took.
func (gt *groupTable) release(instrs []openflow.Instruction) {
	gt.mu.Lock()
	groupRefs(instrs, func(id uint32) {
		if gt.refs[id] > 1 {
			gt.refs[id]--
		} else {
			delete(gt.refs, id)
		}
	})
	gt.mu.Unlock()
}

// groupView is the immutable execution-side view of the group table,
// rebuilt on every mutation and captured by snapshots.
type groupView struct {
	byID map[uint32]*Group
}

var emptyGroupView = &groupView{}

func (gv *groupView) get(id uint32) *Group {
	if gv == nil || gv.byID == nil {
		return nil
	}
	return gv.byID[id]
}

// rebuildGroupViewLocked publishes a fresh immutable view and retracts
// the snapshot, which still executes against the old one. Caller holds
// p.mu.
func (p *Pipeline) rebuildGroupViewLocked() {
	gt := p.groupTab
	gt.mu.Lock()
	v := &groupView{byID: make(map[uint32]*Group, len(gt.entries))}
	for id, g := range gt.entries {
		v.byID[id] = g
	}
	gt.mu.Unlock()
	p.groupsView.Store(v)
	p.retract()
}

// AddGroup installs a new group. It fails if the ID is already in use
// or the definition is invalid.
func (p *Pipeline) AddGroup(g Group) error {
	if err := g.validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	gt := p.groupTab
	gt.mu.Lock()
	if gt.entries[g.ID] != nil {
		gt.mu.Unlock()
		return fmt.Errorf("core: group %d already exists", g.ID)
	}
	gt.entries[g.ID] = g.clone()
	gt.mu.Unlock()
	p.rebuildGroupViewLocked()
	return nil
}

// ModifyGroup replaces an existing group's type and buckets, keeping
// its references. Flows pointing at the group observe the new buckets
// on their next lookup — the retracted snapshot's successor has a new
// version, which invalidates every cached result baked against the old
// ones.
func (p *Pipeline) ModifyGroup(g Group) error {
	if err := g.validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	gt := p.groupTab
	gt.mu.Lock()
	if gt.entries[g.ID] == nil {
		gt.mu.Unlock()
		return fmt.Errorf("core: group %d does not exist", g.ID)
	}
	gt.entries[g.ID] = g.clone()
	gt.mu.Unlock()
	p.rebuildGroupViewLocked()
	return nil
}

// DeleteGroup removes a group. It is refused while any installed flow
// still references the group.
func (p *Pipeline) DeleteGroup(id uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	gt := p.groupTab
	gt.mu.Lock()
	if gt.entries[id] == nil {
		gt.mu.Unlock()
		return fmt.Errorf("core: group %d does not exist", id)
	}
	if n := gt.refs[id]; n > 0 {
		gt.mu.Unlock()
		return fmt.Errorf("core: group %d is referenced by %d flow(s)", id, n)
	}
	delete(gt.entries, id)
	gt.mu.Unlock()
	p.rebuildGroupViewLocked()
	return nil
}

// Groups returns the installed groups, deep-copied, in ID order.
func (p *Pipeline) Groups() []Group {
	gt := p.groupTab
	gt.mu.Lock()
	out := make([]Group, 0, len(gt.entries))
	for _, g := range gt.entries {
		out = append(out, *g.clone())
	}
	gt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// runGroup executes group id against the walk's state: bucket outputs
// are appended to sc.outs (or counted as sent-to-controller). A missing
// group — possible only for results computed before a racing delete was
// refused, i.e. never — and an empty group both drop. Bucket set-field
// actions model rewrites applied to that bucket's forwarded copy; the
// walked header is shared across buckets, so they are accounted but not
// applied. A drop action suppresses its own bucket's outputs only.
func runGroup(gv *groupView, id uint32, sc *execScratch) {
	res := &sc.res
	g := gv.get(id)
	if g == nil || len(g.Buckets) == 0 {
		res.Dropped = true
		return
	}
	buckets := g.Buckets
	if g.Type == GroupIndirect {
		buckets = buckets[:1]
	}
	emitted := false
	for bi := range buckets {
		b := &buckets[bi]
		skip := false
		for _, a := range b.Actions {
			if a.Type == openflow.ActionDrop {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		for _, a := range b.Actions {
			if a.Type != openflow.ActionOutput {
				continue
			}
			emitted = true
			if a.Port == openflow.ControllerPort {
				res.SentToController = true
			} else {
				sc.outs = append(sc.outs, a.Port)
			}
		}
	}
	if !emitted && !res.SentToController {
		res.Dropped = true
	}
}
