// Package filterset models the network flow filter sets the paper analyses
// (Section III) and synthesises replacements for the Stanford backbone
// filter sets it measured.
//
// The paper's evaluation uses the filter collection of reference [21]
// (github.com/wuyangjack/stanford-backbone): sixteen router configurations
// (bbra … yozb), each contributing a MAC-learning filter (VLAN ID +
// destination Ethernet) and a Routing filter (ingress port + IPv4 prefix).
// That data set is not redistributable here, so this package generates
// synthetic filter sets that reproduce the paper's published per-filter
// statistics exactly — the rule counts and unique-value counts of
// Tables III and IV — with realistic value structure beneath the 16-bit
// partition granularity (OUI/NIC clustering for Ethernet, CIDR block
// clustering for IPv4). The substitution argument, in short:
// every memory result in the paper is a function of exactly these
// distributions.
package filterset

import (
	"fmt"

	"ofmtl/internal/openflow"
)

// App identifies the application a filter serves, mirroring the flow-set
// categories of the Stanford collection.
type App int

// Applications.
const (
	MACLearning App = iota + 1 // _rtr_mac_table: VLAN ID + destination Ethernet
	Routing                    // _rtr_route: ingress port + IPv4 prefix
	ACL                        // _rtr_config: 5-tuple access control
	ARP                        // _rtr_arp: target IPv4 + output
	LPM                        // full-table BGP-style IPv4 prefix set (destination only)
)

// String names the application.
func (a App) String() string {
	switch a {
	case MACLearning:
		return "mac-learning"
	case Routing:
		return "routing"
	case ACL:
		return "acl"
	case ARP:
		return "arp"
	case LPM:
		return "lpm"
	default:
		return "unknown"
	}
}

// FilterNames lists the sixteen router filters of the Stanford collection
// in the order the paper's tables present them.
var FilterNames = []string{
	"bbra", "bbrb", "boza", "bozb", "coza", "cozb", "goza", "gozb",
	"poza", "pozb", "roza", "rozb", "soza", "sozb", "yoza", "yozb",
}

// MACRule is one MAC-learning flow entry: an exact (VLAN ID, destination
// Ethernet) pair forwarding to an output port.
type MACRule struct {
	VLAN    uint16 // 12-bit VLAN identifier
	EthDst  uint64 // 48-bit destination Ethernet address
	OutPort uint32
}

// MACFilter is a MAC-learning filter set.
type MACFilter struct {
	Name  string
	Rules []MACRule
}

// RouteRule is one routing flow entry: an exact ingress port plus an IPv4
// destination prefix, forwarding to a next-hop port.
type RouteRule struct {
	InPort    uint32
	Prefix    uint32 // IPv4 destination prefix value (host order)
	PrefixLen int    // 0..32; 0 is the default route
	NextHop   uint32
}

// RouteFilter is a routing filter set.
type RouteFilter struct {
	Name  string
	Rules []RouteRule
}

// ACLRule is one 5-tuple access-control entry (ClassBench-style), used by
// the baseline comparison (Table I) and the ACL example.
type ACLRule struct {
	SrcIP     uint32
	SrcLen    int
	DstIP     uint32
	DstLen    int
	SrcPortLo uint16
	SrcPortHi uint16
	DstPortLo uint16
	DstPortHi uint16
	Proto     uint8
	ProtoAny  bool
	Allow     bool
	Priority  int
}

// ACLFilter is an access-control filter set.
type ACLFilter struct {
	Name  string
	Rules []ACLRule
}

// LPMRule is one destination-only longest-prefix-match entry — the
// full-Internet routing-table regime (no ingress-port qualifier, unlike
// RouteRule), shaped for the single-field dir24 backend but loadable on
// any scheme.
type LPMRule struct {
	Prefix    uint32 // IPv4 destination prefix value (host order)
	PrefixLen int    // 8..32 as generated; 0..32 accepted
	NextHop   uint32
}

// LPMFilter is a destination-only prefix filter set.
type LPMFilter struct {
	Name  string
	Rules []LPMRule
}

// ARPRule is one ARP filter entry: exact target IPv4 to output port.
type ARPRule struct {
	TargetIP uint32
	OutPort  uint32
}

// ARPFilter is an ARP filter set.
type ARPFilter struct {
	Name  string
	Rules []ARPRule
}

// FlowEntries renders the LPM filter as OpenFlow entries: one
// destination-prefix match per rule, with the prefix length as the
// priority so a priority-based classifier reproduces LPM semantics.
func (f *LPMFilter) FlowEntries() []openflow.FlowEntry {
	out := make([]openflow.FlowEntry, 0, len(f.Rules))
	for _, r := range f.Rules {
		out = append(out, openflow.FlowEntry{
			Priority: r.PrefixLen,
			Matches: []openflow.Match{
				openflow.Prefix(openflow.FieldIPv4Dst, uint64(r.Prefix), r.PrefixLen),
			},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(r.NextHop)),
			},
		})
	}
	return out
}

// FlowEntries renders the ARP filter as OpenFlow entries: one exact
// target-IPv4 match per rule, forwarding to the rule's port.
func (f *ARPFilter) FlowEntries() []openflow.FlowEntry {
	out := make([]openflow.FlowEntry, 0, len(f.Rules))
	for _, r := range f.Rules {
		out = append(out, openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldARPTPA, uint64(r.TargetIP))},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(r.OutPort)),
			},
		})
	}
	return out
}

// FlowEntries renders the ACL filter as OpenFlow entries; rule order
// supplies priority (first match wins, as in ACL semantics).
func (f *ACLFilter) FlowEntries() []openflow.FlowEntry {
	out := make([]openflow.FlowEntry, 0, len(f.Rules))
	for i, r := range f.Rules {
		matches := []openflow.Match{
			openflow.Prefix(openflow.FieldIPv4Src, uint64(r.SrcIP), r.SrcLen),
			openflow.Prefix(openflow.FieldIPv4Dst, uint64(r.DstIP), r.DstLen),
			openflow.Range(openflow.FieldSrcPort, uint64(r.SrcPortLo), uint64(r.SrcPortHi)),
			openflow.Range(openflow.FieldDstPort, uint64(r.DstPortLo), uint64(r.DstPortHi)),
		}
		if !r.ProtoAny {
			matches = append(matches, openflow.Exact(openflow.FieldIPProto, uint64(r.Proto)))
		}
		action := openflow.Output(1)
		if !r.Allow {
			action = openflow.Drop()
		}
		out = append(out, openflow.FlowEntry{
			Priority: len(f.Rules) - i,
			Matches:  matches,
			Instructions: []openflow.Instruction{
				openflow.WriteActions(action),
			},
		})
	}
	return out
}

// Validate checks rule field ranges.
func (f *MACFilter) Validate() error {
	for i, r := range f.Rules {
		if r.VLAN > 4095 {
			return fmt.Errorf("filterset: %s rule %d: VLAN %d out of range", f.Name, i, r.VLAN)
		}
		if r.EthDst>>48 != 0 {
			return fmt.Errorf("filterset: %s rule %d: Ethernet address exceeds 48 bits", f.Name, i)
		}
	}
	return nil
}

// Validate checks rule field ranges.
func (f *RouteFilter) Validate() error {
	for i, r := range f.Rules {
		if r.PrefixLen < 0 || r.PrefixLen > 32 {
			return fmt.Errorf("filterset: %s rule %d: prefix length %d out of range", f.Name, i, r.PrefixLen)
		}
	}
	return nil
}

// Validate checks rule field ranges.
func (f *LPMFilter) Validate() error {
	for i, r := range f.Rules {
		if r.PrefixLen < 0 || r.PrefixLen > 32 {
			return fmt.Errorf("filterset: %s rule %d: prefix length %d out of range", f.Name, i, r.PrefixLen)
		}
		if host := uint32(uint64(1)<<(32-uint(r.PrefixLen)) - 1); r.PrefixLen < 32 && r.Prefix&host != 0 {
			return fmt.Errorf("filterset: %s rule %d: bits set past the prefix length", f.Name, i)
		}
	}
	return nil
}

// Validate checks rule field ranges.
func (f *ACLFilter) Validate() error {
	for i, r := range f.Rules {
		if r.SrcLen < 0 || r.SrcLen > 32 || r.DstLen < 0 || r.DstLen > 32 {
			return fmt.Errorf("filterset: %s rule %d: prefix length out of range", f.Name, i)
		}
		if r.SrcPortLo > r.SrcPortHi || r.DstPortLo > r.DstPortHi {
			return fmt.Errorf("filterset: %s rule %d: inverted port range", f.Name, i)
		}
	}
	return nil
}
