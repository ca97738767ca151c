// Package traffic synthesises packet-header traces for the lookup
// benchmarks: mixes of headers that hit installed rules (drawn from the
// rule set with randomised don't-care bits) and headers that miss, at a
// configurable ratio. Traces are deterministic in the seed.
//
// Two regimes are supported. The uniform traces (MACTrace, RouteTrace,
// ACLTrace) draw every packet independently — the worst case for any
// caching front end, and the regime the paper's per-lookup memory cost
// is paid in. ZipfMix and the *TraceZipf wrappers resample a flow
// population so packet frequencies follow a Zipf law, the distribution
// measured traffic actually exhibits: a few elephant flows carry most
// packets. The skewed regime is what the pipeline's microflow cache is
// designed for. SubnetZipf is a third regime: the installed subnets are
// Zipf-popular but every packet is a brand-new flow, which defeats any
// exact-match cache and exercises the megaflow wildcard tier instead.
package traffic

import (
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// MACTrace draws n headers against a MAC filter; approximately hitRatio of
// them match an installed (VLAN, Ethernet) pair.
func MACTrace(f *filterset.MACFilter, n int, hitRatio float64, seed uint64) []openflow.Header {
	rng := xrand.NewNamed(seed, "trace/mac/"+f.Name)
	out := make([]openflow.Header, 0, n)
	for i := 0; i < n; i++ {
		var h openflow.Header
		if len(f.Rules) > 0 && rng.Float64() < hitRatio {
			r := f.Rules[rng.Intn(len(f.Rules))]
			h = openflow.Header{VLANID: r.VLAN, EthDst: r.EthDst, EthSrc: rng.Uint64() & 0xFFFFFFFFFFFF}
		} else {
			h = openflow.Header{
				VLANID: uint16(rng.Intn(4095)),
				EthDst: rng.Uint64() & 0xFFFFFFFFFFFF,
				EthSrc: rng.Uint64() & 0xFFFFFFFFFFFF,
			}
		}
		h.EthType = 0x0800
		out = append(out, h)
	}
	return out
}

// RouteTrace draws n headers against a routing filter; hits carry an
// installed ingress port and an address under an installed prefix, with
// host bits randomised.
func RouteTrace(f *filterset.RouteFilter, n int, hitRatio float64, seed uint64) []openflow.Header {
	rng := xrand.NewNamed(seed, "trace/route/"+f.Name)
	out := make([]openflow.Header, 0, n)
	for i := 0; i < n; i++ {
		var h openflow.Header
		if len(f.Rules) > 0 && rng.Float64() < hitRatio {
			r := f.Rules[rng.Intn(len(f.Rules))]
			keep := uint32(0)
			if r.PrefixLen > 0 {
				keep = ^uint32(0) << (32 - r.PrefixLen)
			}
			h = openflow.Header{
				InPort:  r.InPort,
				IPv4Dst: (r.Prefix & keep) | (rng.Uint32() &^ keep),
				IPv4Src: rng.Uint32(),
			}
		} else {
			h = openflow.Header{
				InPort:  uint32(rng.Intn(512)),
				IPv4Dst: rng.Uint32(),
				IPv4Src: rng.Uint32(),
			}
		}
		h.EthType = 0x0800
		h.IPProto = 6
		out = append(out, h)
	}
	return out
}

// ZipfMix draws an n-packet trace from a flow population: each packet
// is one of the given flows, chosen with Zipf-distributed frequency of
// exponent skew (1.0–1.3 matches measured flow-size distributions;
// 0 degenerates to uniform resampling). Which flow lands on which
// popularity rank is itself a deterministic shuffle of the population,
// so the hot flows are not simply the first entries. The returned
// headers are copies; traces are deterministic in (flows, n, skew,
// seed).
func ZipfMix(flows []openflow.Header, n int, skew float64, seed uint64) []openflow.Header {
	if len(flows) == 0 || n <= 0 {
		return nil
	}
	rng := xrand.NewNamed(seed, "trace/zipfmix")
	rank := rng.Perm(len(flows))
	z := rng.NewZipf(len(flows), skew)
	out := make([]openflow.Header, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, flows[rank[z.Next()]])
	}
	return out
}

// MACTraceZipf draws an n-packet Zipf-skewed trace over a population of
// flows distinct MAC flows (see MACTrace for the hit/miss mix).
func MACTraceZipf(f *filterset.MACFilter, flows, n int, hitRatio, skew float64, seed uint64) []openflow.Header {
	return ZipfMix(MACTrace(f, flows, hitRatio, seed), n, skew, seed)
}

// RouteTraceZipf draws an n-packet Zipf-skewed trace over a population
// of flows distinct routing flows.
func RouteTraceZipf(f *filterset.RouteFilter, flows, n int, hitRatio, skew float64, seed uint64) []openflow.Header {
	return ZipfMix(RouteTrace(f, flows, hitRatio, seed), n, skew, seed)
}

// SubnetZipf draws an n-packet trace where the *subnets* (installed
// routing prefixes) follow a Zipf law of exponent skew but every packet
// is a brand-new flow: the host bits and the source address are fresh
// random draws each packet. This is the megaflow tier's home regime —
// an exact-match microflow cache never hits (no packet repeats a flow),
// while a wildcard cache keyed on the consulted prefix bits absorbs
// every packet after the first per subnet. Which prefix lands on which
// popularity rank is a deterministic shuffle, as in ZipfMix. The trace
// is deterministic in (f, n, skew, seed).
func SubnetZipf(f *filterset.RouteFilter, n int, skew float64, seed uint64) []openflow.Header {
	if len(f.Rules) == 0 || n <= 0 {
		return nil
	}
	rng := xrand.NewNamed(seed, "trace/subnetzipf/"+f.Name)
	rank := rng.Perm(len(f.Rules))
	z := rng.NewZipf(len(f.Rules), skew)
	out := make([]openflow.Header, 0, n)
	for i := 0; i < n; i++ {
		r := f.Rules[rank[z.Next()]]
		keep := uint32(0)
		if r.PrefixLen > 0 {
			keep = ^uint32(0) << (32 - r.PrefixLen)
		}
		out = append(out, openflow.Header{
			InPort:  r.InPort,
			IPv4Dst: (r.Prefix & keep) | (rng.Uint32() &^ keep),
			IPv4Src: rng.Uint32(),
			EthType: 0x0800,
			IPProto: 6,
		})
	}
	return out
}

// LPMTrace draws n headers against a destination-only LPM filter; hits
// carry an address under an installed prefix with host bits randomised,
// misses are uniform random addresses (which may still land under a
// short prefix — the ratio is a floor, not an exact split).
func LPMTrace(f *filterset.LPMFilter, n int, hitRatio float64, seed uint64) []openflow.Header {
	rng := xrand.NewNamed(seed, "trace/lpm/"+f.Name)
	out := make([]openflow.Header, 0, n)
	for i := 0; i < n; i++ {
		var h openflow.Header
		if len(f.Rules) > 0 && rng.Float64() < hitRatio {
			r := f.Rules[rng.Intn(len(f.Rules))]
			keep := uint32(0)
			if r.PrefixLen > 0 {
				keep = ^uint32(0) << (32 - r.PrefixLen)
			}
			h = openflow.Header{
				IPv4Dst: (r.Prefix & keep) | (rng.Uint32() &^ keep),
				IPv4Src: rng.Uint32(),
			}
		} else {
			h = openflow.Header{IPv4Dst: rng.Uint32(), IPv4Src: rng.Uint32()}
		}
		h.EthType = 0x0800
		h.IPProto = 6
		out = append(out, h)
	}
	return out
}

// ACLTrace draws n headers against an ACL filter.
func ACLTrace(f *filterset.ACLFilter, n int, hitRatio float64, seed uint64) []openflow.Header {
	rng := xrand.NewNamed(seed, "trace/acl/"+f.Name)
	out := make([]openflow.Header, 0, n)
	for i := 0; i < n; i++ {
		var h openflow.Header
		if len(f.Rules) > 0 && rng.Float64() < hitRatio {
			r := f.Rules[rng.Intn(len(f.Rules))]
			keepS := uint32(0)
			if r.SrcLen > 0 {
				keepS = ^uint32(0) << (32 - r.SrcLen)
			}
			keepD := uint32(0)
			if r.DstLen > 0 {
				keepD = ^uint32(0) << (32 - r.DstLen)
			}
			h = openflow.Header{
				IPv4Src: (r.SrcIP & keepS) | (rng.Uint32() &^ keepS),
				IPv4Dst: (r.DstIP & keepD) | (rng.Uint32() &^ keepD),
				SrcPort: r.SrcPortLo + uint16(rng.Intn(int(r.SrcPortHi-r.SrcPortLo)+1)),
				DstPort: r.DstPortLo + uint16(rng.Intn(int(r.DstPortHi-r.DstPortLo)+1)),
				IPProto: r.Proto,
			}
			if r.ProtoAny {
				h.IPProto = 6
			}
		} else {
			h = openflow.Header{
				IPv4Src: rng.Uint32(), IPv4Dst: rng.Uint32(),
				SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
				IPProto: 6,
			}
		}
		out = append(out, h)
	}
	return out
}
