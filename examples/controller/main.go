// Controller: an end-to-end control-plane session — a switch daemon and a
// controller in one process, talking the repository's OpenFlow-style
// protocol over loopback TCP. The controller installs flows, injects
// packets, reads the memory statistics the paper's evaluation is about,
// and then drives the switch into its memory budget to show the
// TABLE_FULL admission path: an over-budget transaction is rejected
// atomically, a delete frees headroom, and the same add then succeeds.
//
//	go run ./examples/controller
package main

import (
	"fmt"
	"log"
	"net"
	"os"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatalf("controller: %v", err)
	}
}

func run() error {
	// Switch side: an empty MAC+routing prototype behind a TCP listener.
	pipeline, err := core.BuildPrototype(
		&filterset.MACFilter{Name: "empty"},
		&filterset.RouteFilter{Name: "empty"},
	)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := ofproto.NewServer(pipeline, nil)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		if err := srv.Close(); err != nil {
			log.Printf("controller: closing switch: %v", err)
		}
		<-serveDone
	}()
	fmt.Printf("switch listening on %s\n", l.Addr())

	// Controller side.
	client, err := ofproto.Dial(l.Addr().String())
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	// Program a small MAC-learning table over the wire — one flow-mod
	// batch, applied by the switch as a single transaction: atomic, one
	// snapshot publish, one cache invalidation.
	hosts := []struct {
		vlan uint16
		mac  uint64
		port uint32
	}{
		{100, 0x0050_56AB_0001, 5},
		{100, 0x0050_56AB_0002, 6},
		{200, 0x0050_56AB_0001, 9},
	}
	var fms []ofproto.FlowMod
	for _, hst := range hosts {
		fms = append(fms, ofproto.FlowMod{
			Op: ofproto.FlowAdd, Table: 0,
			Entry: openflow.FlowEntry{
				Priority: 1,
				Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, uint64(hst.vlan))},
				Instructions: []openflow.Instruction{
					openflow.WriteMetadata(uint64(hst.vlan), ^uint64(0)),
					openflow.GotoTable(1),
				},
			},
		}, ofproto.FlowMod{
			Op: ofproto.FlowAdd, Table: 1,
			Entry: openflow.FlowEntry{
				Priority: 1,
				Cookie:   uint64(hst.vlan),
				Matches: []openflow.Match{
					openflow.Exact(openflow.FieldMetadata, uint64(hst.vlan)),
					openflow.Exact(openflow.FieldEthDst, hst.mac),
				},
				Instructions: []openflow.Instruction{
					openflow.WriteActions(openflow.Output(hst.port)),
				},
			},
		})
	}
	reply, err := client.SendFlowMods(fms)
	if err != nil {
		return fmt.Errorf("installing hosts: %w", err)
	}
	if err := client.Barrier(); err != nil {
		return err
	}
	fmt.Printf("installed %d hosts across 2 tables in one transaction (%d commands, %d added, %d replaced)\n\n",
		len(hosts), reply.Commands, reply.Added, reply.Replaced)

	// Inject packets and report the data-plane verdicts.
	probes := []openflow.Header{
		{VLANID: 100, EthDst: 0x0050_56AB_0001},
		{VLANID: 200, EthDst: 0x0050_56AB_0001},
		{VLANID: 100, EthDst: 0x0050_56AB_0099}, // unknown host
	}
	for i := range probes {
		reply, err := client.SendPacket(&probes[i])
		if err != nil {
			return err
		}
		switch {
		case len(reply.Outputs) > 0:
			fmt.Printf("packet vlan=%d mac=%012x -> port %d\n",
				probes[i].VLANID, probes[i].EthDst, reply.Outputs[0])
		case reply.Flags&ofproto.ReplyToController != 0:
			fmt.Printf("packet vlan=%d mac=%012x -> PACKET_IN to controller\n",
				probes[i].VLANID, probes[i].EthDst)
		default:
			fmt.Printf("packet vlan=%d mac=%012x -> dropped\n", probes[i].VLANID, probes[i].EthDst)
		}
	}

	// Read back the switch's memory model.
	st, err := client.Stats()
	if err != nil {
		return err
	}
	fmt.Println("\nswitch report:")
	if err := st.WriteText(os.Stdout); err != nil {
		return err
	}

	// Overload demo: freeze the memory budget at exactly the current
	// usage. The next add would need fresh bits, so the switch rejects
	// it with an OpenFlow-style TABLE_FULL error — atomically, leaving
	// committed state untouched.
	ms := st.Memory
	pipeline.SetMemoryBudget(ms.TotalBits)
	fmt.Printf("\nmemory budget frozen at current usage: %d bits\n", ms.TotalBits)

	newHost := ofproto.FlowMod{
		Op: ofproto.FlowAdd, Table: 1,
		Entry: openflow.FlowEntry{
			Priority: 1,
			Cookie:   100,
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, 100),
				openflow.Exact(openflow.FieldEthDst, 0x0050_56AB_0003),
			},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(7)),
			},
		},
	}
	if _, err := client.SendFlowMods([]ofproto.FlowMod{newHost}); err == nil {
		return fmt.Errorf("over-budget add unexpectedly succeeded")
	} else if !ofproto.IsTableFull(err) {
		return fmt.Errorf("over-budget add: want TABLE_FULL, got: %w", err)
	} else {
		fmt.Printf("adding a 4th host: rejected TABLE_FULL (%v)\n", err)
	}

	// Churn within the provisioned footprint still commits: accounting
	// is high-water (capacity stays provisioned across a delete), so
	// deleting a host and re-adding the *same* one needs no fresh bits
	// even with zero headroom. Deletes are always admitted.
	sameHost := fms[len(fms)-1] // the vlan-200 host installed above
	del := sameHost
	del.Op = ofproto.FlowDeleteStrict
	del.Entry.Instructions = nil
	if _, err := client.SendFlowMods([]ofproto.FlowMod{del}); err != nil {
		return fmt.Errorf("delete at the budget ceiling: %w", err)
	}
	if _, err := client.SendFlowMods([]ofproto.FlowMod{sameHost}); err != nil {
		return fmt.Errorf("re-add within provisioned capacity: %w", err)
	}
	fmt.Println("churn within the provisioned footprint (delete + re-add same host): committed")

	// Admitting genuinely new state needs headroom: the operator raises
	// the budget (switchd -membudget) and the same add commits.
	pipeline.SetMemoryBudget(ms.TotalBits + 1024)
	if _, err := client.SendFlowMods([]ofproto.FlowMod{newHost}); err != nil {
		return fmt.Errorf("add after raising the budget: %w", err)
	}
	fmt.Println("budget raised by 1024 bits; the 4th host now commits")

	if st, err = client.Stats(); err != nil {
		return err
	}
	ms = st.Memory
	fmt.Printf("final memory: %d of %d budgeted bits\n", ms.TotalBits, ms.BudgetBits)
	return nil
}
