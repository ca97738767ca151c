package filterset

import (
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/xrand"
)

// TestMACGenerationMatchesTableIII is the central calibration test: every
// generated MAC filter must reproduce its Table III row exactly.
func TestMACGenerationMatchesTableIII(t *testing.T) {
	for _, target := range MACTargets() {
		f, err := GenerateMAC(target.Name, DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		got := AnalyzeMAC(f)
		want := MACStats{
			Name: target.Name, Rules: target.Rules, VLAN: target.VLAN,
			EthHi: target.EthHi, EthMid: target.EthMid, EthLo: target.EthLo,
		}
		if got != want {
			t.Errorf("%s: stats mismatch\n got: %+v\nwant: %+v", target.Name, got, want)
		}
	}
}

// TestRouteGenerationMatchesTableIV: every generated routing filter must
// reproduce its Table IV row exactly.
func TestRouteGenerationMatchesTableIV(t *testing.T) {
	for _, target := range RouteTargets() {
		f, err := GenerateRoute(target.Name, DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		got := AnalyzeRoute(f)
		want := RouteStats{
			Name: target.Name, Rules: target.Rules, Ports: target.Ports,
			IPHi: target.IPHi, IPLo: target.IPLo,
		}
		if got != want {
			t.Errorf("%s: stats mismatch\n got: %+v\nwant: %+v", target.Name, got, want)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a, err := GenerateMAC("bbra", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMAC("bbra", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != len(b.Rules) {
		t.Fatal("rule counts differ across runs")
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("rule %d differs across identical-seed runs", i)
		}
	}
	c, err := GenerateMAC("bbra", 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Rules {
		if a.Rules[i] == c.Rules[i] {
			same++
		}
	}
	if same == len(a.Rules) {
		t.Error("different seeds produced identical filters")
	}
}

func TestMACRulesDistinct(t *testing.T) {
	f, err := GenerateMAC("gozb", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		vlan uint16
		mac  uint64
	}
	seen := make(map[key]struct{}, len(f.Rules))
	for _, r := range f.Rules {
		k := key{r.VLAN, r.EthDst}
		if _, dup := seen[k]; dup {
			t.Fatalf("duplicate rule (vlan=%d mac=%012x)", r.VLAN, r.EthDst)
		}
		seen[k] = struct{}{}
	}
}

func TestRouteRulesDistinct(t *testing.T) {
	f, err := GenerateRoute("yoza", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		port   uint32
		prefix uint32
		plen   int
	}
	seen := make(map[key]struct{}, len(f.Rules))
	for _, r := range f.Rules {
		k := key{r.InPort, r.Prefix & uint32(bitops.Mask64(r.PrefixLen, 32)), r.PrefixLen}
		if _, dup := seen[k]; dup {
			t.Fatalf("duplicate rule (port=%d prefix=%08x/%d)", r.InPort, r.Prefix, r.PrefixLen)
		}
		seen[k] = struct{}{}
	}
}

func TestRouteContainsDefaultRoute(t *testing.T) {
	f, err := GenerateRoute("bbra", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Rules {
		if r.PrefixLen == 0 {
			return
		}
	}
	t.Error("routing filter should contain a default route (paper: 0.0.0.0/0)")
}

func TestRoutePrefixValuesMasked(t *testing.T) {
	f, err := GenerateRoute("coza", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range f.Rules {
		mask := uint32(bitops.Mask64(r.PrefixLen, 32))
		if r.Prefix&^mask != 0 {
			t.Fatalf("rule %d: prefix %08x has bits beyond /%d", i, r.Prefix, r.PrefixLen)
		}
	}
}

func TestUnknownFilterName(t *testing.T) {
	if _, err := GenerateMAC("nope", 1); err == nil {
		t.Error("unknown MAC filter name should error")
	}
	if _, err := GenerateRoute("nope", 1); err == nil {
		t.Error("unknown routing filter name should error")
	}
}

func TestGenerateAll(t *testing.T) {
	macs := GenerateAllMAC(DefaultSeed)
	if len(macs) != 16 {
		t.Fatalf("GenerateAllMAC returned %d filters", len(macs))
	}
	routes := GenerateAllRoute(DefaultSeed)
	if len(routes) != 16 {
		t.Fatalf("GenerateAllRoute returned %d filters", len(routes))
	}
	for i, name := range FilterNames {
		if macs[i].Name != name || routes[i].Name != name {
			t.Errorf("filter %d order mismatch: %s/%s want %s", i, macs[i].Name, routes[i].Name, name)
		}
	}
}

func TestGenerateACL(t *testing.T) {
	f := GenerateACL("acl1", 1000, DefaultSeed)
	if len(f.Rules) != 1000 {
		t.Fatalf("ACL rules = %d, want 1000", len(f.Rules))
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Port ranges must include wildcards and exact ports.
	sawAny, sawExact := false, false
	for _, r := range f.Rules {
		if r.DstPortLo == 0 && r.DstPortHi == 65535 {
			sawAny = true
		}
		if r.DstPortLo == r.DstPortHi {
			sawExact = true
		}
	}
	if !sawAny || !sawExact {
		t.Error("ACL port ranges should include both wildcards and exact ports")
	}
}

func TestGenerateARP(t *testing.T) {
	f := GenerateARP("arp1", 500, DefaultSeed)
	if len(f.Rules) != 500 {
		t.Fatalf("ARP rules = %d", len(f.Rules))
	}
	seen := make(map[uint32]struct{})
	for _, r := range f.Rules {
		if _, dup := seen[r.TargetIP]; dup {
			t.Fatal("duplicate ARP target")
		}
		seen[r.TargetIP] = struct{}{}
	}
}

func TestClusteredPoolProperties(t *testing.T) {
	rng := newTestRNG()
	pool := clusteredPool16(rng, 5000, 3.5)
	if len(pool) != 5000 {
		t.Fatalf("pool size %d", len(pool))
	}
	seen := make(map[uint16]struct{}, len(pool))
	for _, v := range pool {
		if _, dup := seen[v]; dup {
			t.Fatal("pool contains duplicates")
		}
		seen[v] = struct{}{}
	}
	// Clustering: the number of distinct top-10-bit groups must be well
	// below the uniform expectation (~1000 of 1024 for 5000 draws).
	groups := make(map[uint16]struct{})
	for _, v := range pool {
		groups[v>>6] = struct{}{}
	}
	if len(groups) > 950 {
		t.Errorf("pool looks uniform: %d top-10-bit groups", len(groups))
	}
	// Degenerate sizes.
	if clusteredPool16(rng, 0, 3) != nil {
		t.Error("zero count should produce nil pool")
	}
}

func TestSplitPrefix16(t *testing.T) {
	// Full 48-bit value: three full partitions.
	parts := SplitPrefix16(0x001122334455, 48, 48)
	if len(parts) != 3 || parts[0].Len != 16 || parts[2].Value != 0x4455 {
		t.Errorf("48/48 split = %+v", parts)
	}
	// /24 over 32 bits: full high, half low.
	parts = SplitPrefix16(0x0A0B0C00, 32, 24)
	if len(parts) != 2 || parts[0] != (PartPrefix{Index: 0, Value: 0x0A0B, Len: 16}) || parts[1] != (PartPrefix{Index: 1, Value: 0x0C00, Len: 8}) {
		t.Errorf("/24 split = %+v", parts)
	}
	// /16: high only.
	parts = SplitPrefix16(0x0A0B0000, 32, 16)
	if len(parts) != 1 || parts[0].Len != 16 {
		t.Errorf("/16 split = %+v", parts)
	}
	// /0: single zero-length part (the default route entry).
	parts = SplitPrefix16(0, 32, 0)
	if len(parts) != 1 || parts[0] != (PartPrefix{Index: 0, Value: 0, Len: 0}) {
		t.Errorf("/0 split = %+v", parts)
	}
	// Value bits beyond the prefix are masked off.
	parts = SplitPrefix16(0x0A0BFFFF, 32, 20)
	if parts[1].Value != 0xF000 {
		t.Errorf("/20 low part = %04x, want f000", parts[1].Value)
	}
}

func newTestRNG() *xrand.Source { return xrand.New(12345) }
