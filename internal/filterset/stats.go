package filterset

import (
	"ofmtl/internal/bitops"
)

// This file implements the unique-value survey of Section III of the
// paper: for each filter, the number of unique values of every field at
// 16-bit partition granularity. These statistics are what Tables III and
// IV report, and they drive all downstream memory results.

// PartPrefix re-exports bitops.PartPrefix: the projection of a field
// prefix onto one 16-bit partition.
type PartPrefix = bitops.PartPrefix

// SplitPrefix16 re-exports bitops.SplitPrefix16 for callers working at the
// filter-set level.
func SplitPrefix16(value uint64, width, plen int) []PartPrefix {
	return bitops.SplitPrefix16(value, width, plen)
}

// MACStats is one measured row of Table III.
type MACStats struct {
	Name   string
	Rules  int
	VLAN   int
	EthHi  int
	EthMid int
	EthLo  int
}

// AnalyzeMAC surveys a MAC filter: unique VLAN IDs and unique values of
// the three 16-bit Ethernet address partitions.
func AnalyzeMAC(f *MACFilter) MACStats {
	vlans := make(map[uint16]struct{})
	parts := [3]map[uint16]struct{}{
		make(map[uint16]struct{}), make(map[uint16]struct{}), make(map[uint16]struct{}),
	}
	for _, r := range f.Rules {
		vlans[r.VLAN] = struct{}{}
		for i := 0; i < 3; i++ {
			parts[i][bitops.Partition16(r.EthDst, 48, i)] = struct{}{}
		}
	}
	return MACStats{
		Name:   f.Name,
		Rules:  len(f.Rules),
		VLAN:   len(vlans),
		EthHi:  len(parts[0]),
		EthMid: len(parts[1]),
		EthLo:  len(parts[2]),
	}
}

// RouteStats is one measured row of Table IV.
type RouteStats struct {
	Name  string
	Rules int
	Ports int
	IPHi  int
	IPLo  int
}

// partKey identifies a unique partition prefix: (value, length) pairs are
// distinct even when their values coincide, because a /8 and a /16 over
// the same bits occupy different trie entries.
type partKey struct {
	value uint16
	plen  int
}

// AnalyzeRoute surveys a routing filter: unique ingress ports and unique
// partition prefixes of the higher and lower 16 bits of the IPv4 address.
// The higher partition counts every rule (a /0 contributes the zero-length
// prefix); the lower partition counts only rules whose prefix extends past
// bit 16, since shorter rules leave the lower partition wildcarded.
func AnalyzeRoute(f *RouteFilter) RouteStats {
	ports := make(map[uint32]struct{})
	hi := make(map[partKey]struct{})
	lo := make(map[partKey]struct{})
	for _, r := range f.Rules {
		ports[r.InPort] = struct{}{}
		for _, p := range SplitPrefix16(uint64(r.Prefix), 32, r.PrefixLen) {
			k := partKey{value: p.Value, plen: p.Len}
			switch p.Index {
			case 0:
				hi[k] = struct{}{}
			case 1:
				lo[k] = struct{}{}
			}
		}
	}
	return RouteStats{
		Name:  f.Name,
		Rules: len(f.Rules),
		Ports: len(ports),
		IPHi:  len(hi),
		IPLo:  len(lo),
	}
}
