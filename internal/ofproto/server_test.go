package ofproto

import (
	"net"
	"reflect"
	"sync"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// startTestServer brings up a server on a loopback listener and returns
// its address plus a shutdown function.
func startTestServer(t *testing.T, p *core.Pipeline) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, t.Logf)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return l.Addr().String(), func() {
		if err := srv.Close(); err != nil {
			t.Logf("close: %v", err)
		}
		<-done
	}
}

func emptyMACPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p, err := core.BuildMAC(&filterset.MACFilter{Name: "empty"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEndToEndFlowModAndPacket(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Logf("client close: %v", err)
		}
	}()

	// Install a (vlan 9, mac) flow through both tables, as a controller
	// programming the paper's pipeline would.
	e0 := &openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 9)},
		Instructions: []openflow.Instruction{
			openflow.WriteMetadata(9, ^uint64(0)),
			openflow.GotoTable(1),
		},
	}
	if err := c.AddFlow(0, e0); err != nil {
		t.Fatal(err)
	}
	e1 := &openflow.FlowEntry{
		Priority: 1,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, 9),
			openflow.Exact(openflow.FieldEthDst, 0x0000DEADBEEF),
		},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(42)),
		},
	}
	if err := c.AddFlow(1, e1); err != nil {
		t.Fatal(err)
	}

	reply, err := c.SendPacket(&openflow.Header{VLANID: 9, EthDst: 0x0000DEADBEEF})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Flags&ReplyMatched == 0 || len(reply.Outputs) != 1 || reply.Outputs[0] != 42 {
		t.Errorf("installed flow reply: %+v", reply)
	}

	// A miss goes to the controller.
	reply, err = c.SendPacket(&openflow.Header{VLANID: 10, EthDst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Flags&ReplyToController == 0 {
		t.Errorf("miss reply: %+v", reply)
	}

	// Stats reflect the installed rules.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRules() != 2 || len(st.Tables) != 2 {
		t.Errorf("stats: %+v", st)
	}
	if st.Memory.TotalBits == 0 {
		t.Error("stats memory should be positive")
	}

	// Delete and verify the flow is gone.
	if err := c.DeleteFlow(1, e1); err != nil {
		t.Fatal(err)
	}
	reply, err = c.SendPacket(&openflow.Header{VLANID: 9, EthDst: 0x0000DEADBEEF})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Flags&ReplyMatched != 0 && len(reply.Outputs) > 0 {
		t.Errorf("deleted flow still forwards: %+v", reply)
	}
}

func TestServerSurfacesErrors(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Deleting a flow that was never installed must produce a protocol
	// error, not a hang or disconnect.
	e := &openflow.FlowEntry{
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 5)},
		Instructions: []openflow.Instruction{openflow.GotoTable(1)},
	}
	if err := c.DeleteFlow(0, e); err == nil {
		t.Error("delete of absent flow should error")
	}
	// The connection survives the error.
	if err := c.Barrier(); err != nil {
		t.Errorf("barrier after error: %v", err)
	}
	// Inserting into a missing table errors too.
	if err := c.AddFlow(9, e); err == nil {
		t.Error("insert into missing table should error")
	}
}

// TestServerCloseTwice is the regression test for the double-Close panic:
// the second Close must be a clean no-op, not close(closed) again.
func TestServerCloseTwice(t *testing.T) {
	p := emptyMACPipeline(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, t.Logf)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	<-done
}

// TestPacketBatchRoundTrip exercises the batched classification path end
// to end: one frame in, per-packet replies out, in order.
func TestPacketBatchRoundTrip(t *testing.T) {
	mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildMAC(mac, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWorkers(4)
	addr, stop := startTestServer(t, p)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const n = 100
	hs := make([]*openflow.Header, n)
	for i := range hs {
		if i%3 == 2 {
			// Every third packet misses (unknown VLAN).
			hs[i] = &openflow.Header{VLANID: 4000, EthDst: 1}
			continue
		}
		r := mac.Rules[i%len(mac.Rules)]
		hs[i] = &openflow.Header{VLANID: r.VLAN, EthDst: r.EthDst}
	}
	replies, err := c.SendPackets(hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != n {
		t.Fatalf("got %d replies, want %d", len(replies), n)
	}
	for i, r := range replies {
		if i%3 == 2 {
			if r.Flags&ReplyToController == 0 {
				t.Errorf("packet %d: miss should go to controller: %+v", i, r)
			}
			continue
		}
		rule := mac.Rules[i%len(mac.Rules)]
		if r.Flags&ReplyMatched == 0 || len(r.Outputs) != 1 || r.Outputs[0] != rule.OutPort {
			t.Errorf("packet %d: reply %+v, want output %d", i, r, rule.OutPort)
		}
	}

	// The batch and single-packet paths must agree. (The batch replies are
	// the client's buffer, only good until its next call: copy first.)
	first := PacketReply{Flags: replies[0].Flags, Outputs: append([]uint32(nil), replies[0].Outputs...)}
	single, err := c.SendPacket(&openflow.Header{VLANID: mac.Rules[0].VLAN, EthDst: mac.Rules[0].EthDst})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*single, first) {
		t.Errorf("single %+v and batch %+v disagree", single, first)
	}
}

// TestConcurrentStatsAndFlowMods covers the stats path racing mutations
// from another connection (caught by -race if stats ever reads the live
// tables without the pipeline lock).
func TestConcurrentStatsAndFlowMods(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()

	writer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = writer.Close() }()
	reader, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reader.Close() }()

	done := make(chan error, 1)
	go func() {
		e := &openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 7)},
			Instructions: []openflow.Instruction{openflow.GotoTable(1)},
		}
		for i := 0; i < 200; i++ {
			if err := writer.AddFlow(0, e); err != nil {
				done <- err
				return
			}
			if err := writer.DeleteFlow(0, e); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 100; i++ {
		if _, err := reader.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildMAC(mac, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startTestServer(t, p)
	defer stop()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = c.Close() }()
			for j := 0; j < 50; j++ {
				r := mac.Rules[j%len(mac.Rules)]
				reply, err := c.SendPacket(&openflow.Header{VLANID: r.VLAN, EthDst: r.EthDst})
				if err != nil {
					errs <- err
					return
				}
				if reply.Flags&ReplyMatched == 0 {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheStatsOverWire enables the microflow cache on the served
// pipeline, drives a repeated batch workload through it, and checks the
// stats message reports the fast path's effectiveness.
func TestCacheStatsOverWire(t *testing.T) {
	mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.BuildMAC(mac, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.SetCacheSize(1 << 12)
	addr, stop := startTestServer(t, p)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	hs := make([]*openflow.Header, 64)
	scratch := make([]openflow.Header, 64)
	for round := 0; round < 4; round++ {
		for i := range hs {
			r := mac.Rules[i%len(mac.Rules)]
			scratch[i] = openflow.Header{VLANID: r.VLAN, EthDst: r.EthDst}
			hs[i] = &scratch[i]
		}
		replies, err := c.SendPackets(hs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range replies {
			if r.Flags&ReplyMatched == 0 {
				t.Fatalf("round %d packet %d did not match: %+v", round, i, r)
			}
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Microflow.Entries <= 0 {
		t.Errorf("stats report %d cache entries, want > 0", st.Microflow.Entries)
	}
	if st.Microflow.Hits == 0 {
		t.Errorf("repeated batches produced no cache hits: %+v", st.Microflow)
	}
	if st.Microflow.Misses == 0 {
		t.Errorf("first-packet flows should count as misses: %+v", st.Microflow)
	}
	// A flow-mod through the wire retires cached results.
	e := &openflow.FlowEntry{
		Priority:     2,
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, uint64(mac.Rules[0].VLAN))},
		Instructions: []openflow.Instruction{openflow.GotoTable(1)},
	}
	if err := c.AddFlow(0, e); err != nil {
		t.Fatal(err)
	}
	h := openflow.Header{VLANID: mac.Rules[0].VLAN, EthDst: mac.Rules[0].EthDst}
	reply, err := c.SendPacket(&h)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Flags&ReplyMatched == 0 {
		t.Errorf("post-flow-mod packet should still match: %+v", reply)
	}
}
