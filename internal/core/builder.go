package core

import (
	"fmt"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// Builders translate the surveyed filter applications (Section III) into
// multi-table pipelines following the paper's decomposition (Section IV.C):
// each application's two fields are distributed into two tables, the first
// table writes the matched field value into the metadata register and
// issues Goto-Table, and the second table matches (metadata, second field)
// and writes the final actions.
//
// This file is the one place that decision is written down. AppTables
// gives each application's table shapes; MACEntries and RouteEntries give
// the entries one rule becomes. The builders below insert them directly,
// and the controller side sends the same entries as flow-mods: ofctl's
// add-mac/del-mac/add-route/del-route, and flowgen's rule files and
// churn workloads.

// The prototype's table layout (Section V.A): the MAC-learning pair at
// tables MACBase and MACBase+1, the routing pair at RouteBase and
// RouteBase+1. ofctl and flowgen address the same tables.
const (
	MACBase   openflow.TableID = 0
	RouteBase openflow.TableID = 2
)

// AppTables gives the match fields of each table an application
// occupies, in order from its first table; nil for an unknown
// application. The builders create these tables, and flowgen checks a
// churn workload's backend pin against them.
func AppTables(app filterset.App) [][]openflow.FieldID {
	switch app {
	case filterset.MACLearning:
		return [][]openflow.FieldID{{openflow.FieldVLANID}, {openflow.FieldMetadata, openflow.FieldEthDst}}
	case filterset.Routing:
		return [][]openflow.FieldID{{openflow.FieldInPort}, {openflow.FieldMetadata, openflow.FieldIPv4Dst}}
	case filterset.ACL:
		return [][]openflow.FieldID{{
			openflow.FieldIPv4Src, openflow.FieldIPv4Dst,
			openflow.FieldSrcPort, openflow.FieldDstPort, openflow.FieldIPProto,
		}}
	case filterset.ARP:
		return [][]openflow.FieldID{{openflow.FieldARPTPA}}
	case filterset.LPM:
		return [][]openflow.FieldID{{openflow.FieldIPv4Dst}}
	default:
		return nil
	}
}

// addAppTables adds the application's tables to p from table base on.
// missFirst is the first table's miss policy, letting a prototype chain
// applications; the others send misses to the controller.
func addAppTables(p *Pipeline, app filterset.App, base openflow.TableID, missFirst MissPolicy) ([]*LookupTable, error) {
	var ts []*LookupTable
	for i, fields := range AppTables(app) {
		miss := MissPolicy{Kind: MissController}
		if i == 0 {
			miss = missFirst
		}
		t, err := p.AddTable(TableConfig{ID: base + openflow.TableID(i), Fields: fields, Miss: miss})
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// MACEntries returns the two entries one MAC rule becomes at tables base
// and base+1: a VLAN entry that writes the VLAN into metadata and goes to
// base+1, and a (metadata, destination Ethernet) entry that outputs to the
// rule's port.
func MACEntries(r filterset.MACRule, base openflow.TableID) [2]openflow.FlowEntry {
	return pair(uint64(r.VLAN), base, 1,
		openflow.Exact(openflow.FieldVLANID, uint64(r.VLAN)),
		openflow.Exact(openflow.FieldEthDst, r.EthDst), r.OutPort)
}

// RouteEntries returns the two entries one route rule becomes at tables
// base and base+1: an ingress-port entry that writes the port into
// metadata and goes to base+1, and a (metadata, IPv4 destination prefix)
// entry that outputs to the next hop. The second entry's priority is
// 1+prefix length, so the longest matching prefix wins.
func RouteEntries(r filterset.RouteRule, base openflow.TableID) [2]openflow.FlowEntry {
	return pair(uint64(r.InPort), base, 1+r.PrefixLen,
		openflow.Exact(openflow.FieldInPort, uint64(r.InPort)),
		openflow.Prefix(openflow.FieldIPv4Dst, uint64(r.Prefix), r.PrefixLen), r.NextHop)
}

// pair builds the Section IV.C decomposition of one rule: at base, a
// priority-1 entry matching first that writes meta into the metadata
// register and goes to base+1; at base+1, an entry of priority prio
// matching (meta, second) that outputs to port. The two entries share
// one backing array for their matches and one for their instructions: a
// builder renders hundreds of thousands of rules, and Insert copies what
// it keeps.
func pair(meta uint64, base openflow.TableID, prio int, first, second openflow.Match, port uint32) [2]openflow.FlowEntry {
	ms := []openflow.Match{first, openflow.Exact(openflow.FieldMetadata, meta), second}
	ins := []openflow.Instruction{
		openflow.WriteMetadata(meta, ^uint64(0)),
		openflow.GotoTable(base + 1),
		openflow.WriteActions(openflow.Output(port)),
	}
	return [2]openflow.FlowEntry{
		{Priority: 1, Matches: ms[:1:1], Instructions: ins[:2:2]},
		{Priority: prio, Matches: ms[1:], Instructions: ins[2:]},
	}
}

// BuildMAC constructs the two-table MAC-learning pipeline from a filter,
// with tables numbered base and base+1.
func BuildMAC(f *filterset.MACFilter, base openflow.TableID) (*Pipeline, error) {
	p := NewPipeline()
	if err := AddMACTables(p, f, base, MissPolicy{Kind: MissController}); err != nil {
		return nil, err
	}
	return p, nil
}

// AddMACTables installs the MAC-learning application into an existing
// pipeline at tables base and base+1. missFirst is the miss policy of the
// first (VLAN) table, letting a prototype chain applications. Each rule
// inserts both of its entries, so the VLAN table holds one entry per rule.
func AddMACTables(p *Pipeline, f *filterset.MACFilter, base openflow.TableID, missFirst MissPolicy) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("core: building MAC pipeline: %w", err)
	}
	ts, err := addAppTables(p, filterset.MACLearning, base, missFirst)
	if err != nil {
		return err
	}
	for i, r := range f.Rules {
		for j, e := range MACEntries(r, base) {
			if err := ts[j].Insert(&e); err != nil {
				return fmt.Errorf("core: MAC rule %d (table %d): %w", i, ts[j].ID(), err)
			}
		}
	}
	return nil
}

// BuildRoute constructs the two-table routing pipeline from a filter, with
// tables numbered base and base+1.
func BuildRoute(f *filterset.RouteFilter, base openflow.TableID) (*Pipeline, error) {
	p := NewPipeline()
	if err := AddRouteTables(p, f, base, MissPolicy{Kind: MissController}); err != nil {
		return nil, err
	}
	return p, nil
}

// AddRouteTables installs the routing application into an existing
// pipeline at tables base and base+1.
func AddRouteTables(p *Pipeline, f *filterset.RouteFilter, base openflow.TableID, missFirst MissPolicy) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("core: building routing pipeline: %w", err)
	}
	ts, err := addAppTables(p, filterset.Routing, base, missFirst)
	if err != nil {
		return err
	}
	seenPorts := make(map[uint32]bool)
	for i, r := range f.Rules {
		es := RouteEntries(r, base)
		if !seenPorts[r.InPort] {
			// One first-table entry per ingress port suffices: the entry
			// only transfers the port into metadata. (Inserting per rule
			// would be refcount-equivalent; deduplicating here keeps the
			// first table at one entry per unique value, as the paper's
			// LUT sizing assumes.)
			seenPorts[r.InPort] = true
			if err := ts[0].Insert(&es[0]); err != nil {
				return fmt.Errorf("core: route rule %d (table %d): %w", i, base, err)
			}
		}
		if err := ts[1].Insert(&es[1]); err != nil {
			return fmt.Errorf("core: route rule %d (table %d): %w", i, base+1, err)
		}
	}
	return nil
}

// BuildPrototype assembles the paper's evaluated prototype (Section V.A):
// four OpenFlow lookup tables — the MAC-learning pair and the routing pair
// — with two independent multi-bit trie structures (Ethernet, IPv4) and
// two exact-match LUTs (VLAN ID, ingress port). A packet missing the MAC
// application's first table falls through to the routing application.
func BuildPrototype(mac *filterset.MACFilter, route *filterset.RouteFilter) (*Pipeline, error) {
	return BuildPrototypeWith(mac, route, "")
}

// BuildPrototypeWith is BuildPrototype with the tables served by the
// named lookup backend (empty selects the process default, normally
// mbt) — the constructor behind switchd's -backend flag.
func BuildPrototypeWith(mac *filterset.MACFilter, route *filterset.RouteFilter, backend string) (*Pipeline, error) {
	p := NewPipeline()
	if backend != "" {
		if err := p.SetDefaultBackend(backend); err != nil {
			return nil, err
		}
	}
	if err := AddMACTables(p, mac, MACBase, MissPolicy{Kind: MissGoto, Table: RouteBase}); err != nil {
		return nil, err
	}
	if err := AddRouteTables(p, route, RouteBase, MissPolicy{Kind: MissController}); err != nil {
		return nil, err
	}
	return p, nil
}

// BuildARP constructs the single-table ARP responder application (the
// _rtr_arp flow sets of the Stanford collection): exact target-IPv4
// matching to an output port.
func BuildARP(f *filterset.ARPFilter, base openflow.TableID) (*Pipeline, error) {
	return buildSingle(filterset.ARP, base, f.FlowEntries())
}

// BuildACL constructs a single-table 5-tuple classifier from an ACL
// filter, exercising all three matching methods in one table (prefix IPs,
// port ranges, exact protocol).
func BuildACL(f *filterset.ACLFilter) (*Pipeline, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: building ACL pipeline: %w", err)
	}
	return buildSingle(filterset.ACL, 0, f.FlowEntries())
}

// buildSingle builds a pipeline of a single-table application's one table
// at base, holding entries.
func buildSingle(app filterset.App, base openflow.TableID, entries []openflow.FlowEntry) (*Pipeline, error) {
	p := NewPipeline()
	ts, err := addAppTables(p, app, base, MissPolicy{Kind: MissController})
	if err != nil {
		return nil, err
	}
	for i := range entries {
		if err := ts[0].Insert(&entries[i]); err != nil {
			return nil, fmt.Errorf("core: %s rule %d: %w", app, i, err)
		}
	}
	return p, nil
}
