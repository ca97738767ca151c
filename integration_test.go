package ofmtl_test

import (
	"reflect"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/traffic"
)

// Cross-module integration: the full prototype (both applications, four
// tables) classifying mixed traffic, checked against per-application
// ground truth computed directly from the filter definitions.

func prototypeGroundTruthMAC(f *filterset.MACFilter) map[[2]uint64]uint32 {
	m := make(map[[2]uint64]uint32, len(f.Rules))
	for _, r := range f.Rules {
		m[[2]uint64{uint64(r.VLAN), r.EthDst}] = r.OutPort
	}
	return m
}

func prototypeGroundTruthRoute(f *filterset.RouteFilter, port, addr uint32) (uint32, bool) {
	best := -1
	var hop uint32
	for _, r := range f.Rules {
		if r.InPort != port {
			continue
		}
		mask := uint32(0)
		if r.PrefixLen > 0 {
			mask = ^uint32(0) << (32 - r.PrefixLen)
		}
		if addr&mask == r.Prefix&mask && r.PrefixLen > best {
			best, hop = r.PrefixLen, r.NextHop
		}
	}
	return hop, best >= 0
}

func TestPrototypeIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration builds two applications")
	}
	mac, err := filterset.GenerateMAC("poza", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	route, err := filterset.GenerateRoute("gozb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildPrototype(mac, route)
	if err != nil {
		t.Fatal(err)
	}
	macTruth := prototypeGroundTruthMAC(mac)

	// MAC traffic resolves in the MAC application.
	macTrace := traffic.MACTrace(mac, 3000, 0.85, 7)
	macHits := 0
	for i := range macTrace {
		h := macTrace[i]
		res := p.Execute(&h)
		if want, ok := macTruth[[2]uint64{uint64(h.VLANID), h.EthDst}]; ok {
			macHits++
			if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != want {
				t.Fatalf("MAC flow %d: %+v, want %d", i, res, want)
			}
		}
	}
	if macHits == 0 {
		t.Fatal("no MAC probe hit")
	}

	// Routed traffic with VLANs unknown to the MAC app falls through to
	// tables 2-3 and resolves by LPM.
	routeTrace := traffic.RouteTrace(route, 3000, 0.85, 8)
	routeHits, misses := 0, 0
	for i := range routeTrace {
		h := routeTrace[i]
		h.VLANID = 4010 // not a poza VLAN: guarantees MAC-table miss
		res := p.Execute(&h)
		wantHop, ok := prototypeGroundTruthRoute(route, h.InPort, h.IPv4Dst)
		if ok {
			routeHits++
			if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != wantHop {
				t.Fatalf("route flow %d: %+v, want hop %d", i, res, wantHop)
			}
		} else {
			misses++
			if !res.SentToController {
				t.Fatalf("route flow %d should reach controller: %+v", i, res)
			}
		}
	}
	if routeHits == 0 || misses == 0 {
		t.Fatalf("degenerate routed mix: %d hits, %d misses", routeHits, misses)
	}

	// The memory report covers both applications' structures.
	mem := p.MemoryReport()
	if mem.TotalBits <= 0 {
		t.Fatal("empty memory report")
	}
	var sawEth, sawIP bool
	for _, c := range mem.Components {
		switch {
		case contains(c.Name, "ethdst"):
			sawEth = true
		case contains(c.Name, "ipv4dst"):
			sawIP = true
		}
	}
	if !sawEth || !sawIP {
		t.Errorf("memory report missing application structures (eth=%v ip=%v)", sawEth, sawIP)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFlowCacheSpeedupIntegration exercises the cached prototype on a
// flow-repetitive trace and verifies agreement plus a hit-rate win.
func TestFlowCacheSpeedupIntegration(t *testing.T) {
	mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildMAC(mac, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.SetCacheSize(256)
	flows := traffic.MACTrace(mac, 128, 0.9, 3)
	want := make([]core.Result, len(flows))
	for round := 0; round < 40; round++ {
		for i := range flows {
			h := flows[i]
			if res := p.Execute(&h); round == 0 {
				want[i] = res
			} else if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("round %d flow %d: cached %+v, walked %+v", round, i, res, want[i])
			}
		}
	}
	if st := p.CacheStats(); st.Hits < st.Misses*10 {
		t.Errorf("cache ineffective on repetitive trace: %+v", st)
	}
}
