package core

import (
	"fmt"
	"slices"
	"testing"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// TestBuildersInsertRenderedEntries pins that the prototype builder
// inserts exactly the entries MACEntries and RouteEntries render: both
// entries of every MAC rule (so the VLAN table holds one entry per
// rule), and for routing the first entry once per ingress port and the
// second per rule.
func TestBuildersInsertRenderedEntries(t *testing.T) {
	mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	route, err := filterset.GenerateRoute("bbra", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPrototype(mac, route)
	if err != nil {
		t.Fatal(err)
	}

	want := map[openflow.TableID][]string{}
	render := func(table openflow.TableID, e *openflow.FlowEntry) {
		c := canonicalEntry(e)
		want[table] = append(want[table], fmt.Sprintf("%+v", c))
	}
	for _, r := range mac.Rules {
		es := MACEntries(r, MACBase)
		render(MACBase, &es[0])
		render(MACBase+1, &es[1])
	}
	seen := map[uint32]bool{}
	for _, r := range route.Rules {
		es := RouteEntries(r, RouteBase)
		if !seen[r.InPort] {
			seen[r.InPort] = true
			render(RouteBase, &es[0])
		}
		render(RouteBase+1, &es[1])
	}

	shapes := append(AppTables(filterset.MACLearning), AppTables(filterset.Routing)...)
	for i, id := range []openflow.TableID{MACBase, MACBase + 1, RouteBase, RouteBase + 1} {
		tab, ok := p.Table(id)
		if !ok {
			t.Fatalf("prototype has no table %d", id)
		}
		var got []string
		for _, b := range tab.store.buckets {
			for _, sr := range b {
				e := sr.entry
				e.Ref = 0 // the lifecycle record the insert stamped
				got = append(got, fmt.Sprintf("%+v", e))
			}
		}
		slices.Sort(got)
		slices.Sort(want[id])
		if !slices.Equal(got, want[id]) {
			t.Errorf("table %d: the builder inserted %d entries, the renderer gives %d, and they differ", id, len(got), len(want[id]))
		}
		if !slices.Equal(tab.Fields(), shapes[i]) {
			t.Errorf("table %d matches %v, not its AppTables shape", id, tab.Fields())
		}
	}
}
