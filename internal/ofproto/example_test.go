package ofproto_test

import (
	"fmt"
	"net"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

// Example_controller runs a switch and a controller in one process over
// loopback TCP. The controller installs hosts as one flow-mod batch,
// sends packets and reads the switch's modelled memory. It then drives
// the switch into its memory budget: an over-budget add is rejected with
// TABLE_FULL, a delete and re-add of an installed host still commits,
// and the new host commits once the budget is raised.
func Example_controller() {
	// Switch side: an empty MAC + routing prototype behind a listener.
	pipeline, err := core.BuildPrototype(&filterset.MACFilter{Name: "empty"}, &filterset.RouteFilter{Name: "empty"})
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	srv := ofproto.NewServer(pipeline, nil)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-served
	}()

	// Controller side.
	client, err := ofproto.Dial(l.Addr().String())
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	defer func() { _ = client.Close() }()

	// Each host is a table-0 VLAN rule and a table-1 (VLAN, MAC) rule; the
	// switch applies the whole batch as one transaction.
	host := func(vlan uint16, mac uint64, port uint32) []ofproto.FlowMod {
		return []ofproto.FlowMod{{
			Op: ofproto.FlowAdd, Table: 0,
			Entry: openflow.FlowEntry{
				Priority: 1,
				Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, uint64(vlan))},
				Instructions: []openflow.Instruction{
					openflow.WriteMetadata(uint64(vlan), ^uint64(0)),
					openflow.GotoTable(1),
				},
			},
		}, {
			Op: ofproto.FlowAdd, Table: 1,
			Entry: openflow.FlowEntry{
				Priority: 1,
				Cookie:   uint64(vlan),
				Matches: []openflow.Match{
					openflow.Exact(openflow.FieldMetadata, uint64(vlan)),
					openflow.Exact(openflow.FieldEthDst, mac),
				},
				Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(port))},
			},
		}}
	}
	var fms []ofproto.FlowMod
	fms = append(fms, host(100, 0x0050_56AB_0001, 5)...)
	fms = append(fms, host(100, 0x0050_56AB_0002, 6)...)
	fms = append(fms, host(200, 0x0050_56AB_0001, 9)...)
	reply, err := client.SendFlowMods(fms)
	if err != nil {
		fmt.Println("install:", err)
		return
	}
	fmt.Printf("one transaction: %d commands, %d added, %d replaced\n", reply.Commands, reply.Added, reply.Replaced)

	for _, h := range []openflow.Header{
		{VLANID: 100, EthDst: 0x0050_56AB_0001},
		{VLANID: 200, EthDst: 0x0050_56AB_0001},
		{VLANID: 100, EthDst: 0x0050_56AB_0099}, // unknown host
	} {
		r, err := client.SendPacket(&h)
		if err != nil {
			fmt.Println("packet:", err)
			return
		}
		switch {
		case len(r.Outputs) > 0:
			fmt.Printf("vlan %d mac %012x -> port %d\n", h.VLANID, h.EthDst, r.Outputs[0])
		case r.Flags&ofproto.ReplyToController != 0:
			fmt.Printf("vlan %d mac %012x -> controller\n", h.VLANID, h.EthDst)
		default:
			fmt.Printf("vlan %d mac %012x -> dropped\n", h.VLANID, h.EthDst)
		}
	}

	st, err := client.Stats()
	if err != nil {
		fmt.Println("stats:", err)
		return
	}
	used := st.Memory.TotalBits
	fmt.Printf("modelled memory: %d bits across %d tables\n", used, len(st.Memory.Tables))

	// Freeze the budget at the current usage. A new host needs fresh
	// bits, so the switch rejects it atomically with TABLE_FULL.
	pipeline.SetMemoryBudget(used)
	newHost := host(100, 0x0050_56AB_0003, 7)[1:]
	_, err = client.SendFlowMods(newHost)
	fmt.Printf("new host at the ceiling: TABLE_FULL %v (%v)\n", ofproto.IsTableFull(err), err)

	// Accounting is high-water: deleting an installed host and adding the
	// same one back needs no fresh bits, so both commit at the ceiling.
	same := fms[len(fms)-1]
	del := same
	del.Op = ofproto.FlowDeleteStrict
	del.Entry.Instructions = nil
	if _, err := client.SendFlowMods([]ofproto.FlowMod{del}); err != nil {
		fmt.Println("delete:", err)
		return
	}
	if _, err := client.SendFlowMods([]ofproto.FlowMod{same}); err != nil {
		fmt.Println("re-add:", err)
		return
	}
	fmt.Println("delete + re-add of an installed host: committed")

	pipeline.SetMemoryBudget(used + 1024)
	if _, err := client.SendFlowMods(newHost); err != nil {
		fmt.Println("add after raising the budget:", err)
		return
	}
	if st, err = client.Stats(); err != nil {
		fmt.Println("stats:", err)
		return
	}
	fmt.Printf("budget raised by 1024 bits: new host committed, %d of %d bits used\n", st.Memory.TotalBits, st.Memory.BudgetBits)
	// Output:
	// one transaction: 6 commands, 6 added, 1 replaced
	// vlan 100 mac 005056ab0001 -> port 5
	// vlan 200 mac 005056ab0001 -> port 9
	// vlan 100 mac 005056ab0099 -> controller
	// modelled memory: 13360 bits across 4 tables
	// new host at the ceiling: TABLE_FULL true (ofproto: switch error (type 5, code 1): core: memory budget exceeded: 13558 bits used of 13360 budgeted)
	// delete + re-add of an installed host: committed
	// budget raised by 1024 bits: new host committed, 13558 of 14384 bits used
}
