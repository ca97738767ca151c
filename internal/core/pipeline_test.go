package core

import (
	"slices"
	"testing"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

func TestMACPipelineEndToEnd(t *testing.T) {
	f, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildMAC(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every installed rule must forward to its own output port.
	for i, r := range f.Rules {
		h := &openflow.Header{VLANID: r.VLAN, EthDst: r.EthDst}
		res := p.Execute(h)
		if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != r.OutPort {
			t.Fatalf("rule %d: Execute = %+v, want output %d", i, res, r.OutPort)
		}
		if res.MatchedTables != 2 {
			t.Fatalf("rule %d: matched %d tables, want 2", i, res.MatchedTables)
		}
	}
	// An unknown (vlan, mac) pair goes to the controller.
	h := &openflow.Header{VLANID: 4095, EthDst: 0x123456789AB}
	res := p.Execute(h)
	if !res.SentToController {
		t.Errorf("unknown flow should reach the controller: %+v", res)
	}
	// A known VLAN with an unknown MAC misses in the second table.
	h = &openflow.Header{VLANID: f.Rules[0].VLAN, EthDst: 0x123456789AB}
	res = p.Execute(h)
	if !res.SentToController || res.MatchedTables != 1 {
		t.Errorf("unknown MAC in known VLAN: %+v", res)
	}
}

func TestMACPipelineVLANIsolation(t *testing.T) {
	// The same MAC in two VLANs must forward independently — this is what
	// the metadata transfer between tables buys.
	f := &filterset.MACFilter{Name: "iso", Rules: []filterset.MACRule{
		{VLAN: 10, EthDst: 0xAABBCCDDEEFF, OutPort: 1},
		{VLAN: 20, EthDst: 0xAABBCCDDEEFF, OutPort: 2},
	}}
	p, err := BuildMAC(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		vlan uint16
		want uint32
	}{{10, 1}, {20, 2}} {
		h := &openflow.Header{VLANID: c.vlan, EthDst: 0xAABBCCDDEEFF}
		res := p.Execute(h)
		if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != c.want {
			t.Errorf("vlan %d: %+v, want output %d", c.vlan, res, c.want)
		}
	}
	// Same MAC in a third VLAN: controller.
	h := &openflow.Header{VLANID: 30, EthDst: 0xAABBCCDDEEFF}
	if res := p.Execute(h); !res.SentToController {
		t.Errorf("vlan 30 should miss: %+v", res)
	}
}

// routeReference computes the expected next hop by brute force LPM.
func routeReference(f *filterset.RouteFilter, port uint32, addr uint32) (uint32, bool) {
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
			best = r.PrefixLen
			hop = r.NextHop
		}
	}
	return hop, best >= 0
}

func TestRoutePipelineLPM(t *testing.T) {
	f, err := filterset.GenerateRoute("poza", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildRoute(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(555)
	hits, misses := 0, 0
	for i := 0; i < 1500; i++ {
		var port uint32
		var addr uint32
		if rng.Float64() < 0.8 {
			r := f.Rules[rng.Intn(len(f.Rules))]
			port = r.InPort
			keep := uint32(0)
			if r.PrefixLen > 0 {
				keep = ^uint32(0) << (32 - r.PrefixLen)
			}
			addr = (r.Prefix & keep) | (rng.Uint32() &^ keep)
		} else {
			port = uint32(rng.Intn(300))
			addr = rng.Uint32()
		}
		h := &openflow.Header{InPort: port, IPv4Dst: addr}
		res := p.Execute(h)
		wantHop, wantOK := routeReference(f, port, addr)
		if wantOK {
			hits++
			if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != wantHop {
				t.Fatalf("probe %d (port %d, addr %08x): %+v, want hop %d", i, port, addr, res, wantHop)
			}
		} else {
			misses++
			if !res.SentToController {
				t.Fatalf("probe %d should reach controller: %+v", i, res)
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("degenerate probe mix: %d hits, %d misses", hits, misses)
	}
}

func TestPrototypeFallsThroughToRouting(t *testing.T) {
	mac := &filterset.MACFilter{Name: "m", Rules: []filterset.MACRule{
		{VLAN: 5, EthDst: 0x001122334455, OutPort: 9},
	}}
	route := &filterset.RouteFilter{Name: "r", Rules: []filterset.RouteRule{
		{InPort: 3, Prefix: 0x0A000000, PrefixLen: 8, NextHop: 7},
		{InPort: 3, Prefix: 0, PrefixLen: 0, NextHop: 1},
	}}
	p, err := BuildPrototype(mac, route)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Tables()); got != 4 {
		t.Fatalf("prototype has %d tables, want 4", got)
	}
	// A MAC-app packet resolves in tables 0-1.
	h := &openflow.Header{VLANID: 5, EthDst: 0x001122334455}
	res := p.Execute(h)
	if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 9 {
		t.Errorf("MAC flow: %+v", res)
	}
	// A packet with an unknown VLAN falls through to routing.
	h = &openflow.Header{VLANID: 99, InPort: 3, IPv4Dst: 0x0A0B0C0D}
	res = p.Execute(h)
	if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 7 {
		t.Errorf("fall-through flow: %+v", res)
	}
	if len(res.TablesVisited) < 3 {
		t.Errorf("expected walk through tables 0,2,3: %v", res.TablesVisited)
	}
	// Unknown VLAN and unmatched port: controller.
	h = &openflow.Header{VLANID: 99, InPort: 8, IPv4Dst: 0x0A0B0C0D}
	if res := p.Execute(h); !res.SentToController {
		t.Errorf("double miss should reach controller: %+v", res)
	}
}

func TestPipelineMetadataWrite(t *testing.T) {
	f := &filterset.MACFilter{Name: "m", Rules: []filterset.MACRule{
		{VLAN: 7, EthDst: 0x1, OutPort: 2},
	}}
	p, err := BuildMAC(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &openflow.Header{VLANID: 7, EthDst: 0x1}
	p.Execute(h)
	if h.Metadata != 7 {
		t.Errorf("metadata = %d after pipeline, want 7 (the VLAN)", h.Metadata)
	}
}

func TestEmptyPipeline(t *testing.T) {
	p := NewPipeline()
	res := p.Execute(&openflow.Header{})
	if !res.SentToController {
		t.Error("empty pipeline should send to controller")
	}
	if _, err := p.Begin().Add(0, &openflow.FlowEntry{}).Commit(); err == nil {
		t.Error("insert into missing table should error")
	}
	if _, err := p.Begin().Delete(0).Commit(); err == nil {
		t.Error("remove from missing table should error")
	}
}

func TestDuplicateTableRejected(t *testing.T) {
	p := NewPipeline()
	cfg := TableConfig{ID: 1, Fields: []openflow.FieldID{openflow.FieldVLANID}}
	if _, err := p.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTable(cfg); err == nil {
		t.Error("duplicate table id should error")
	}
}

func TestMissDropPolicy(t *testing.T) {
	p := NewPipeline()
	_, err := p.AddTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldVLANID},
		Miss:   MissPolicy{Kind: MissDrop},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := p.Execute(&openflow.Header{VLANID: 1})
	if !res.Dropped || res.SentToController {
		t.Errorf("miss with drop policy: %+v", res)
	}
}

func TestACLPipeline(t *testing.T) {
	f := filterset.GenerateACL("acl-test", 300, filterset.DefaultSeed)
	p, err := BuildACL(f)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the reference classifier over the same entries.
	var ref ReferenceClassifier
	for _, e := range f.FlowEntries() {
		entry := e
		ref.Insert(&entry)
	}
	rng := xrand.New(808)
	hits := 0
	for i := 0; i < 1000; i++ {
		var h openflow.Header
		if rng.Float64() < 0.7 {
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
				SrcPort: r.SrcPortLo,
				DstPort: r.DstPortLo,
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
		tbl, _ := p.Table(0)
		got, gotOK := tbl.Classify(&h)
		want, wantOK := ref.Classify(&h)
		if gotOK != wantOK {
			t.Fatalf("probe %d: match disagreement (table=%v ref=%v)", i, gotOK, wantOK)
		}
		if gotOK {
			hits++
			if got.Priority != want.Priority {
				t.Fatalf("probe %d: priority %d != %d", i, got.Priority, want.Priority)
			}
		}
	}
	if hits == 0 {
		t.Error("no probe hit any ACL rule")
	}
}

func TestMemoryReportShape(t *testing.T) {
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
	r := p.MemoryReport()
	if r.TotalBits <= 0 || r.Blocks <= 0 {
		t.Fatalf("degenerate memory report: %+v", r)
	}
	// The report must contain trie levels for the Ethernet field (3
	// partitions × 3 levels) and the IPv4 field (2 × 3).
	trieLevels := 0
	for _, c := range r.Components {
		if len(c.Name) > 5 && c.Name[len(c.Name)-3] == '/' && c.Name[len(c.Name)-2] == 'L' {
			trieLevels++
		}
	}
	if trieLevels != 15 {
		t.Errorf("trie level components = %d, want 15 (3x3 Ethernet + 2x3 IPv4)", trieLevels)
	}
}

// TestDirectTableMutationVisible verifies the generation-counter path:
// rules inserted directly through a *LookupTable handle (the builders'
// single-threaded pattern) are picked up by the next Execute without an
// explicit Refresh.
func TestDirectTableMutationVisible(t *testing.T) {
	p := NewPipeline()
	tbl, err := p.AddTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldVLANID},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &openflow.Header{VLANID: 9}
	if res := p.Execute(h); res.Matched {
		t.Fatalf("empty pipeline matched: %+v", res)
	}
	e := &openflow.FlowEntry{
		Priority:     1,
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 9)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(3))},
	}
	if err := tbl.Insert(e); err != nil {
		t.Fatal(err)
	}
	if res := p.Execute(&openflow.Header{VLANID: 9}); !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 3 {
		t.Errorf("direct insert not visible through snapshot: %+v", res)
	}
	if err := tbl.Remove(e); err != nil {
		t.Fatal(err)
	}
	if res := p.Execute(&openflow.Header{VLANID: 9}); res.Matched {
		t.Errorf("direct remove not visible through snapshot: %+v", res)
	}
}

// TestOutOfRangeHeaderBits: a header slot may hold bits above its field's
// registered width (the wire decoder stores slots as they arrive). Every
// backend that serves the field, with the megaflow tier off and on, and
// the reference scan read the field at its width, so those bits change
// no verdict: a VLAN 10 rule takes VLANID 0x200A, an exact EthDst rule
// takes the same address with bit 50 set. (dir24 serves only a 32-bit
// prefix field.)
func TestOutOfRangeHeaderBits(t *testing.T) {
	cases := []struct {
		name       string
		field      openflow.FieldID
		value      uint64
		outOfRange uint64
		set        func(h *openflow.Header, v uint64)
	}{
		{"vlan", openflow.FieldVLANID, 10, 1 << 13, func(h *openflow.Header, v uint64) { h.VLANID = uint16(v) }},
		{"ethdst", openflow.FieldEthDst, 0x112233445566, 1 << 50, func(h *openflow.Header, v uint64) { h.EthDst = v }},
	}
	for _, c := range cases {
		e := &openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(c.field, c.value)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(7))},
		}
		var in, wide openflow.Header
		c.set(&in, c.value)
		c.set(&wide, c.value|c.outOfRange)
		var ref ReferenceClassifier
		ref.Insert(e)
		if _, ok := ref.Classify(&wide); !ok {
			t.Errorf("%s: the reference scan misses the out-of-range header", c.name)
		}
		for _, kind := range []string{BackendMBT, BackendTSS, BackendLinearTCAM} {
			for _, mega := range []int{0, 256} {
				p := NewPipeline()
				if _, err := p.AddTable(TableConfig{ID: 0, Fields: []openflow.FieldID{c.field}, Backend: kind}); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Begin().Add(0, e).Commit(); err != nil {
					t.Fatal(err)
				}
				p.SetMegaflowSize(mega)
				p.Execute(&in) // fills the megaflow tier when it is on
				got := p.Execute(&wide)
				if !slices.Equal(got.Outputs, []uint32{7}) {
					t.Errorf("%s on %s, megaflow %d: out-of-range header outputs %v, want [7]", c.name, kind, mega, got.Outputs)
				}
				if hits := p.MegaflowStats().Hits; mega > 0 && hits != 1 {
					t.Errorf("%s on %s: %d megaflow hits, want the out-of-range header served by the tier", c.name, kind, hits)
				}
			}
		}
	}
}
