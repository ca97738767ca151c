package core_test

import (
	"fmt"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// ExampleBuildMAC builds the paper's two-table MAC-learning pipeline from
// a filter and classifies one packet through both tables.
func ExampleBuildMAC() {
	filter := &filterset.MACFilter{
		Name: "demo",
		Rules: []filterset.MACRule{
			{VLAN: 10, EthDst: 0x001122334455, OutPort: 3},
		},
	}
	pipeline, err := core.BuildMAC(filter, 0)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	h := &openflow.Header{VLANID: 10, EthDst: 0x001122334455}
	res := pipeline.Execute(h)
	fmt.Printf("output ports: %v, tables visited: %v\n", res.Outputs, res.TablesVisited)
	// Output: output ports: [3], tables visited: [0 1]
}

// ExampleLookupTable_Classify shows the decomposed single-table lookup:
// parallel field searches combined by the index-calculation stage.
func ExampleLookupTable_Classify() {
	tbl, err := core.NewLookupTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldDstPort},
	})
	if err != nil {
		fmt.Println("table:", err)
		return
	}
	// A /8 route for web traffic, and a default drop.
	_ = tbl.Insert(&openflow.FlowEntry{
		Priority: 10,
		Matches: []openflow.Match{
			openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
			openflow.Range(openflow.FieldDstPort, 80, 80),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
	})
	_ = tbl.Insert(&openflow.FlowEntry{
		Priority:     0,
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
	})

	m, ok := tbl.Classify(&openflow.Header{IPv4Dst: 0x0A010203, DstPort: 80})
	fmt.Println("web flow matched:", ok, "priority:", m.Priority)
	m, ok = tbl.Classify(&openflow.Header{IPv4Dst: 0x0B000001, DstPort: 22})
	fmt.Println("other flow matched:", ok, "priority:", m.Priority)
	// Output:
	// web flow matched: true priority: 10
	// other flow matched: true priority: 0
}

// ExamplePipeline_MemoryReport computes the paper's hardware memory model
// for a small pipeline.
func ExamplePipeline_MemoryReport() {
	filter := &filterset.MACFilter{
		Name:  "demo",
		Rules: []filterset.MACRule{{VLAN: 1, EthDst: 0xAABBCCDDEEFF, OutPort: 1}},
	}
	pipeline, _ := core.BuildMAC(filter, 0)
	rep := pipeline.MemoryReport()
	fmt.Println("components:", len(rep.Components) > 0, "bits:", rep.TotalBits > 0)
	// Output: components: true bits: true
}

// Example_quickstart builds a two-table MAC-learning pipeline by hand,
// installs three hosts as one transaction, classifies packets, removes a
// VLAN's hosts with one cookie-filtered delete and prints the modelled
// memory footprint.
func Example_quickstart() {
	// Table 0 matches the VLAN ID with an exact-match LUT and writes it
	// into the metadata register; table 1 matches (metadata, destination
	// Ethernet), the address searched by three 16-bit multi-bit tries in
	// parallel: the architecture of the paper's Fig. 1.
	p := core.NewPipeline()
	for _, cfg := range []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldVLANID}},
		{ID: 1, Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldEthDst}},
	} {
		if _, err := p.AddTable(cfg); err != nil {
			fmt.Println("table:", err)
			return
		}
	}

	// One transaction: every command validates and applies atomically,
	// and the pipeline publishes one snapshot for the whole batch.
	hosts := []struct {
		vlan uint16
		mac  uint64
		port uint32
	}{
		{10, 0x00AA_BB01_0001, 1},
		{10, 0x00AA_BB01_0002, 2},
		{20, 0x00AA_BB01_0001, 7}, // same MAC, different VLAN, different port
	}
	tx := p.Begin()
	for _, h := range hosts {
		tx.Add(0, &openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, uint64(h.vlan))},
			Instructions: []openflow.Instruction{
				openflow.WriteMetadata(uint64(h.vlan), ^uint64(0)),
				openflow.GotoTable(1),
			},
		})
		tx.Add(1, &openflow.FlowEntry{
			Priority: 1,
			Cookie:   uint64(h.vlan), // cookies tag rules for bulk delete
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, uint64(h.vlan)),
				openflow.Exact(openflow.FieldEthDst, h.mac),
			},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(h.port))},
		})
	}
	res, err := tx.Commit()
	if err != nil {
		fmt.Println("commit:", err)
		return
	}
	// The two VLAN-10 hosts share a table-0 entry: the second add
	// replaces the identical first (OpenFlow add semantics).
	fmt.Printf("committed %d commands: %d added, %d replaced\n", res.Commands, res.Added, res.Replaced)

	for _, h := range []openflow.Header{
		{VLANID: 10, EthDst: 0x00AA_BB01_0001},
		{VLANID: 20, EthDst: 0x00AA_BB01_0001},
		{VLANID: 10, EthDst: 0x00AA_BB01_0002},
		{VLANID: 30, EthDst: 0x00AA_BB01_0001}, // unknown VLAN
	} {
		r := p.Execute(&h)
		switch {
		case len(r.Outputs) > 0:
			fmt.Printf("vlan %2d mac %012x -> port %d (tables %v)\n", h.VLANID, h.EthDst, r.Outputs[0], r.TablesVisited)
		case r.SentToController:
			fmt.Printf("vlan %2d mac %012x -> controller (table miss)\n", h.VLANID, h.EthDst)
		default:
			fmt.Printf("vlan %2d mac %012x -> dropped\n", h.VLANID, h.EthDst)
		}
	}

	// Every VLAN-10 rule of table 1 goes with one non-strict delete
	// filtered by cookie, without restating the matches.
	res, err = p.Begin().FlowMod(core.FlowCmd{
		Op:         core.CmdDelete,
		Table:      1,
		CookieMask: ^uint64(0),
		Entry:      openflow.FlowEntry{Cookie: 10},
	}).Commit()
	if err != nil {
		fmt.Println("delete:", err)
		return
	}
	fmt.Printf("cookie-filtered delete removed %d entries\n", res.Deleted)

	mem := p.MemoryReport()
	fmt.Printf("modelled memory: %.2f Kbit across %d components (%d M20K blocks)\n",
		mem.TotalKbits(), len(mem.Components), mem.Blocks)
	// Output:
	// committed 6 commands: 6 added, 1 replaced
	// vlan 10 mac 00aabb010001 -> port 1 (tables [0 1])
	// vlan 20 mac 00aabb010001 -> port 7 (tables [0 1])
	// vlan 10 mac 00aabb010002 -> port 2 (tables [0 1])
	// vlan 30 mac 00aabb010001 -> controller (table miss)
	// cookie-filtered delete removed 2 entries
	// modelled memory: 7.02 Kbit across 16 components (17 M20K blocks)
}
