// Learning switch: a reactive controller over the control channel. The
// switch starts empty; every table miss becomes a "send to controller"
// event (the paper's miss instruction, Section IV.C), the controller
// learns the source address from the missed packet and installs the
// (VLAN, MAC) -> port flow, and subsequent packets to that host are
// forwarded in hardware. This exercises the full incremental-update path
// whose cost Fig. 5 analyses, live over TCP.
//
//	go run ./examples/learningswitch
package main

import (
	"fmt"
	"log"
	"net"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

// host is one end station in the emulated network.
type host struct {
	vlan uint16
	mac  uint64
	port uint32
}

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatalf("learningswitch: %v", err)
	}
}

func run() error {
	// Switch side: empty MAC-learning pipeline behind TCP.
	pipeline, err := core.BuildMAC(&filterset.MACFilter{Name: "empty"}, 0)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := ofproto.NewServer(pipeline, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	ctl, err := ofproto.Dial(l.Addr().String())
	if err != nil {
		return err
	}
	defer func() { _ = ctl.Close() }()

	// The emulated LAN: four hosts across two VLANs.
	hosts := []host{
		{vlan: 10, mac: 0x0A0000000001, port: 1},
		{vlan: 10, mac: 0x0A0000000002, port: 2},
		{vlan: 20, mac: 0x140000000001, port: 3},
		{vlan: 20, mac: 0x140000000002, port: 4},
	}
	learned := map[uint64]bool{}

	// learn installs the two-table entries for a host, as the controller
	// does on a packet-in carrying an unknown source.
	learn := func(h host) error {
		e0 := &openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, uint64(h.vlan))},
			Instructions: []openflow.Instruction{
				openflow.WriteMetadata(uint64(h.vlan), ^uint64(0)),
				openflow.GotoTable(1),
			},
		}
		// The VLAN entry is shared; re-adding an identical entry is
		// refcounted, but install it only once per VLAN to keep the first
		// table at one entry per unique value.
		if !learned[uint64(h.vlan)<<48] {
			learned[uint64(h.vlan)<<48] = true
			if err := ctl.AddFlow(0, e0); err != nil {
				return err
			}
		}
		e1 := &openflow.FlowEntry{
			Priority: 1,
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, uint64(h.vlan)),
				openflow.Exact(openflow.FieldEthDst, h.mac),
			},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(h.port)),
			},
		}
		return ctl.AddFlow(1, e1)
	}

	// Traffic: every host talks to every other host, twice. First contact
	// misses and triggers learning; repeats hit the installed flows.
	misses, forwards := 0, 0
	for round := 1; round <= 2; round++ {
		fmt.Printf("--- round %d ---\n", round)
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst || src.vlan != dst.vlan {
					continue
				}
				pkt := &openflow.Header{VLANID: dst.vlan, EthSrc: src.mac, EthDst: dst.mac, InPort: src.port}
				reply, err := ctl.SendPacket(pkt)
				if err != nil {
					return err
				}
				switch {
				case reply.Flags&ofproto.ReplyToController != 0:
					misses++
					// PACKET_IN: learn the *destination* on demand (the
					// emulation knows where it lives; a real controller
					// would have learned it from that host's own traffic).
					if !learned[dst.mac] {
						learned[dst.mac] = true
						if err := learn(dst); err != nil {
							return err
						}
						fmt.Printf("miss: vlan %d %012x -> learned port %d\n", dst.vlan, dst.mac, dst.port)
					}
				case len(reply.Outputs) == 1:
					forwards++
					fmt.Printf("hw forward: vlan %d %012x -> port %d\n", dst.vlan, dst.mac, reply.Outputs[0])
				}
			}
		}
	}

	st, err := ctl.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("\nlearned %d flows: %d misses (round 1), %d hardware forwards (round 2)\n",
		st.TotalRules(), misses, forwards)
	fmt.Printf("switch memory after learning: %.1f Kbit\n", float64(st.Memory.TotalBits)/1000)
	if misses == 0 || forwards == 0 {
		return fmt.Errorf("unexpected traffic outcome: %d misses, %d forwards", misses, forwards)
	}
	return nil
}
