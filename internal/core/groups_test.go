package core

import (
	"strings"
	"testing"

	"ofmtl/internal/openflow"
)

// groupFlow builds an exact-match flow handing the packet to group id
// via write-actions.
func groupFlow(src uint32, prio int, id uint32) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority: prio,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldIPv4Src, uint64(src))},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Group(id)),
		},
	}
}

func TestGroupValidation(t *testing.T) {
	p := lifecyclePipeline(t)
	cases := []struct {
		name string
		g    Group
		want string
	}{
		{"unknown type", Group{ID: 1, Type: 9}, "unknown type"},
		{"indirect bucket count", Group{ID: 1, Type: GroupIndirect, Buckets: []Bucket{
			{Actions: []openflow.Action{openflow.Output(1)}},
			{Actions: []openflow.Action{openflow.Output(2)}},
		}}, "exactly one bucket"},
		{"group chaining", Group{ID: 1, Type: GroupAll, Buckets: []Bucket{
			{Actions: []openflow.Action{openflow.Group(2)}},
		}}, "chaining"},
		{"unsupported action", Group{ID: 1, Type: GroupAll, Buckets: []Bucket{
			{Actions: []openflow.Action{{Type: openflow.ActionPushVLAN}}},
		}}, "unsupported action"},
	}
	for _, tc := range cases {
		err := p.AddGroup(tc.g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: AddGroup err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	ok := Group{ID: 1, Type: GroupAll, Buckets: []Bucket{
		{Actions: []openflow.Action{openflow.Output(1)}},
	}}
	if err := p.AddGroup(ok); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGroup(ok); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate AddGroup err = %v, want already-exists", err)
	}
	if err := p.ModifyGroup(Group{ID: 2, Type: GroupAll}); err == nil {
		t.Fatal("ModifyGroup of a missing group succeeded")
	}
	if err := p.DeleteGroup(2); err == nil {
		t.Fatal("DeleteGroup of a missing group succeeded")
	}
}

func TestGroupExecution(t *testing.T) {
	p := lifecyclePipeline(t)

	// all: every bucket's outputs are appended; a drop bucket
	// suppresses only itself.
	if err := p.AddGroup(Group{ID: 1, Type: GroupAll, Buckets: []Bucket{
		{Actions: []openflow.Action{openflow.Output(10)}},
		{Actions: []openflow.Action{openflow.Drop(), openflow.Output(66)}},
		{Actions: []openflow.Action{openflow.Output(11)}},
	}}); err != nil {
		t.Fatal(err)
	}
	// indirect: the single shared bucket.
	if err := p.AddGroup(Group{ID: 2, Type: GroupIndirect, Buckets: []Bucket{
		{Actions: []openflow.Action{openflow.Output(7)}},
	}}); err != nil {
		t.Fatal(err)
	}
	// empty all-group: nowhere to go, drops.
	if err := p.AddGroup(Group{ID: 3, Type: GroupAll}); err != nil {
		t.Fatal(err)
	}

	mustInsert(t, p, groupFlow(1, 10, 1))
	mustInsert(t, p, groupFlow(2, 20, 2))
	mustInsert(t, p, groupFlow(3, 30, 2)) // two flows share the indirect group
	mustInsert(t, p, groupFlow(4, 40, 3))

	res := p.Execute(srcHeader(1, 60))
	if !res.Matched || res.Dropped || len(res.Outputs) != 2 || res.Outputs[0] != 10 || res.Outputs[1] != 11 {
		t.Fatalf("all-group result = %+v, want outputs [10 11]", res)
	}
	for _, src := range []uint32{2, 3} {
		res = p.Execute(srcHeader(src, 60))
		if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 7 {
			t.Fatalf("indirect result for src=%d = %+v, want output 7", src, res)
		}
	}
	res = p.Execute(srcHeader(4, 60))
	if !res.Matched || !res.Dropped {
		t.Fatalf("empty-group result = %+v, want matched drop", res)
	}
}

// TestGroupModifyInvalidatesCaches repoints an indirect group under
// warm microflow and megaflow caches: the very next lookup must observe
// the new bucket, not a cached result baked against the old one. In the
// second case a flow-mod that overlaps no cached region commits between
// the modify and that lookup. The commit finds the published snapshot
// stale (it predates the group change), so its snapshot must open a fresh
// megaflow window: carrying the old one forward would revive the entries
// that baked in the old bucket.
func TestGroupModifyInvalidatesCaches(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit bool
	}{{"modify", false}, {"modify_then_commit", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := lifecyclePipeline(t)
			p.SetCacheSize(256)
			p.SetMegaflowSize(256)

			if err := p.AddGroup(Group{ID: 1, Type: GroupIndirect, Buckets: []Bucket{
				{Actions: []openflow.Action{openflow.Output(7)}},
			}}); err != nil {
				t.Fatal(err)
			}
			mustInsert(t, p, groupFlow(1, 10, 1))
			mustInsert(t, p, groupFlow(2, 20, 1))

			for i := 0; i < 4; i++ {
				p.Execute(srcHeader(1, 60))
				p.Execute(srcHeader(2, 60))
			}
			if res := p.Execute(srcHeader(1, 60)); len(res.Outputs) != 1 || res.Outputs[0] != 7 {
				t.Fatalf("pre-modify result = %+v, want output 7", res)
			}

			// Repoint the shared next-hop: every referencing flow retargets.
			if err := p.ModifyGroup(Group{ID: 1, Type: GroupIndirect, Buckets: []Bucket{
				{Actions: []openflow.Action{openflow.Output(9)}},
			}}); err != nil {
				t.Fatal(err)
			}
			if tc.commit {
				mustInsert(t, p, groupFlow(99, 10, 1))
			}
			for _, src := range []uint32{1, 2} {
				if res := p.Execute(srcHeader(src, 60)); len(res.Outputs) != 1 || res.Outputs[0] != 9 {
					t.Fatalf("post-modify result for src=%d = %+v, want output 9", src, res)
				}
			}
		})
	}
}

// TestGroupRefCounting pins the delete protection: a group is
// undeletable while flows reference it, deletable once they are gone —
// whether removed explicitly or by expiry.
func TestGroupRefCounting(t *testing.T) {
	p := lifecyclePipeline(t)
	t0 := p.LifecycleClock()
	if err := p.AddGroup(Group{ID: 1, Type: GroupAll, Buckets: []Bucket{
		{Actions: []openflow.Action{openflow.Output(1)}},
	}}); err != nil {
		t.Fatal(err)
	}

	// A flow referencing a missing group is refused outright.
	if _, err := p.Begin().Add(0, groupFlow(9, 90, 42)).Commit(); err == nil || !strings.Contains(err.Error(), "unknown group") {
		t.Fatalf("insert with missing group err = %v, want unknown-group", err)
	}

	f1 := groupFlow(1, 10, 1)
	f2 := groupFlow(2, 20, 1)
	f2.HardTimeout = 3
	mustInsert(t, p, f1)
	mustInsert(t, p, f2)

	if err := p.DeleteGroup(1); err == nil || !strings.Contains(err.Error(), "referenced by 2") {
		t.Fatalf("delete of referenced group err = %v, want refusal naming 2 flows", err)
	}

	// Expiry releases one reference...
	if n, err := p.SweepExpired(t0 + 3); err != nil || n != 1 {
		t.Fatalf("sweep = %d, %v, want 1", n, err)
	}
	if err := p.DeleteGroup(1); err == nil || !strings.Contains(err.Error(), "referenced by 1") {
		t.Fatalf("delete after expiry err = %v, want refusal naming 1 flow", err)
	}

	// ...explicit delete the other; now the group can go.
	if _, err := p.Begin().DeleteStrict(0, 10, f1.Matches...).Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.DeleteGroup(1); err != nil {
		t.Fatalf("delete of unreferenced group failed: %v", err)
	}
	if st := p.LifecycleStats(); st.Groups != 0 {
		t.Fatalf("stats report %d groups after delete, want 0", st.Groups)
	}
}

// TestGroupRefRollback checks a failed transaction releases the group
// references it acquired: after a rejected commit the group is
// immediately deletable.
func TestGroupRefRollback(t *testing.T) {
	p := lifecyclePipeline(t)
	if err := p.AddGroup(Group{ID: 1, Type: GroupAll, Buckets: []Bucket{
		{Actions: []openflow.Action{openflow.Output(1)}},
	}}); err != nil {
		t.Fatal(err)
	}
	// Second command references a missing group: the whole tx must
	// reject, releasing the first command's acquired reference.
	tx := p.Begin().Add(0, groupFlow(1, 10, 1)).Add(0, groupFlow(2, 20, 42))
	if _, err := tx.Commit(); err == nil {
		t.Fatal("commit with unknown group reference succeeded")
	}
	if got := p.Rules(); got != 0 {
		t.Fatalf("rejected tx left %d rules installed", got)
	}
	if err := p.DeleteGroup(1); err != nil {
		t.Fatalf("group still referenced after rollback: %v", err)
	}
}

// TestActionSetSemantics exercises the write/apply/clear interplay:
// later write-actions replace same-kind actions, clear-actions empties
// the accumulated set, and apply-actions set-field rewrites steer later
// tables.
func TestActionSetSemantics(t *testing.T) {
	p := NewPipeline()
	if _, err := p.AddTable(lifecycleTableConfig(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTable(TableConfig{ID: 1, Fields: []openflow.FieldID{openflow.FieldDstPort}}); err != nil {
		t.Fatal(err)
	}

	// src=1: table 0 writes out=5 and goes to table 1, which overwrites
	// with out=6 — last write wins.
	e0 := &openflow.FlowEntry{
		Priority: 10,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldIPv4Src, 1)},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(5)),
			openflow.GotoTable(1),
		},
	}
	e1 := &openflow.FlowEntry{
		Priority: 10,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldDstPort, 80)},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(6)),
		},
	}
	// dst=81 in table 1: clear-actions with nothing after — the packet
	// ends with an empty set and drops.
	e2 := &openflow.FlowEntry{
		Priority: 10,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldDstPort, 81)},
		Instructions: []openflow.Instruction{
			{Type: openflow.InstrClearActions},
		},
	}
	// src=2: apply-actions rewrites DstPort mid-walk, so table 1
	// matches the rewritten value.
	e3 := &openflow.FlowEntry{
		Priority: 20,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldIPv4Src, 2)},
		Instructions: []openflow.Instruction{
			openflow.ApplyActions(openflow.SetField(openflow.FieldDstPort, 80)),
			openflow.GotoTable(1),
		},
	}
	if _, err := p.Begin().Add(0, e0).Add(1, e1).Add(1, e2).Add(0, e3).Commit(); err != nil {
		t.Fatal(err)
	}

	res := p.Execute(&openflow.Header{IPv4Src: 1, DstPort: 80})
	if len(res.Outputs) != 1 || res.Outputs[0] != 6 {
		t.Fatalf("write-overwrite result = %+v, want output 6", res)
	}
	res = p.Execute(&openflow.Header{IPv4Src: 1, DstPort: 81})
	if !res.Dropped {
		t.Fatalf("clear-actions result = %+v, want drop", res)
	}
	res = p.Execute(&openflow.Header{IPv4Src: 2, DstPort: 9999})
	if len(res.Outputs) != 1 || res.Outputs[0] != 6 {
		t.Fatalf("set-field reroute result = %+v, want output 6 via rewritten dst-port", res)
	}
}
