package ofproto

import (
	"net"
	"reflect"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

func sampleFlowMods() []FlowMod {
	return []FlowMod{
		{
			Op:    FlowAdd,
			Table: 0,
			Entry: openflow.FlowEntry{
				Priority: 7,
				Cookie:   0xDEAD,
				Matches: []openflow.Match{
					openflow.Exact(openflow.FieldVLANID, 5),
					openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
				},
				Instructions: []openflow.Instruction{
					openflow.GotoTable(1),
					openflow.WriteActions(openflow.Output(3), openflow.Drop()),
				},
			},
		},
		{
			Op:         FlowDelete,
			Table:      2,
			CookieMask: 0xFF00,
			Entry: openflow.FlowEntry{
				Cookie:  0x1200,
				Matches: []openflow.Match{openflow.Range(openflow.FieldDstPort, 80, 443)},
			},
		},
		{
			Op:    FlowModify,
			Table: 1,
			Entry: openflow.FlowEntry{
				Matches:      []openflow.Match{openflow.Exact(openflow.FieldEthDst, 0xAABBCCDDEEFF)},
				Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(9))},
			},
		},
		{
			Op:    FlowDeleteStrict,
			Table: 3,
			Entry: openflow.FlowEntry{
				Priority: 12,
				Matches:  []openflow.Match{openflow.Exact(openflow.FieldInPort, 4)},
			},
		},
	}
}

// TestFlowModBatchRoundTrip checks the batch codec, including arena reuse
// across two decodes.
func TestFlowModBatchRoundTrip(t *testing.T) {
	fms := sampleFlowMods()
	payload := AppendFlowModBatch(nil, fms)

	got, err := DecodeFlowModBatchArena(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fms, got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", fms, got)
	}

	// Arena path: decode twice through the same buffers; the second
	// decode must not be corrupted by the first.
	var ar openflow.EntryArena
	var buf []FlowMod
	buf, err = DecodeFlowModBatchArena(payload, buf, &ar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fms, buf) {
		t.Fatal("arena decode mismatch")
	}
	buf, err = DecodeFlowModBatchArena(payload, buf, &ar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fms, buf) {
		t.Fatal("second arena decode mismatch")
	}
}

// TestFlowModBatchDecodeErrors covers malformed batch payloads.
func TestFlowModBatchDecodeErrors(t *testing.T) {
	fms := sampleFlowMods()
	payload := AppendFlowModBatch(nil, fms)
	cases := map[string][]byte{
		"empty":       nil,
		"short count": {0},
		"truncated":   payload[:len(payload)-3],
		"trailing":    append(append([]byte(nil), payload...), 0xFF),
		"bad op":      AppendFlowModBatch(nil, []FlowMod{{Op: 99}}),
	}
	for name, p := range cases {
		if _, err := DecodeFlowModBatchArena(p, nil, nil); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// TestFlowModBatchReplyRoundTrip checks the reply codec.
func TestFlowModBatchReplyRoundTrip(t *testing.T) {
	r := &FlowModBatchReply{Commands: 5, Added: 2, Replaced: 1, Modified: 1, Deleted: 1}
	got, err := DecodeFlowModBatchReply(AppendFlowModBatchReply(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("reply round trip: %+v vs %+v", got, r)
	}
	if _, err := DecodeFlowModBatchReply([]byte{1, 2, 3}); err == nil {
		t.Error("short reply decoded")
	}
}

// startTxServer spins up a server over a MAC-style two-table pipeline.
func startTxServer(t *testing.T) (*core.Pipeline, *Client, func()) {
	t.Helper()
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldVLANID},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTable(core.TableConfig{
		ID:     1,
		Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldEthDst},
	}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return p, c, func() {
		_ = c.Close()
		_ = srv.Close()
		<-done
	}
}

func macMods(vlan uint16, mac uint64, port uint32) []FlowMod {
	return []FlowMod{
		{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, uint64(vlan))},
			Instructions: []openflow.Instruction{
				openflow.WriteMetadata(uint64(vlan), ^uint64(0)),
				openflow.GotoTable(1),
			},
		}},
		{Op: FlowAdd, Table: 1, Entry: openflow.FlowEntry{
			Priority: 1,
			Cookie:   uint64(vlan),
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, uint64(vlan)),
				openflow.Exact(openflow.FieldEthDst, mac),
			},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(port)),
			},
		}},
	}
}

// TestFlowModBatchEndToEnd drives a full control session over the wire:
// batched adds, a barrier, packet verification, a batched modify, a
// non-strict delete, and the transaction counters in stats.
func TestFlowModBatchEndToEnd(t *testing.T) {
	_, c, stop := startTxServer(t)
	defer stop()

	// Install 8 hosts in one transaction (16 commands).
	var fms []FlowMod
	for i := 0; i < 8; i++ {
		fms = append(fms, macMods(10, 0xAABB00000000+uint64(i), uint32(i+1))...)
	}
	reply, err := c.SendFlowMods(fms)
	if err != nil {
		t.Fatal(err)
	}
	// The 8 table-0 VLAN entries are identical, so each later one
	// replaces its predecessor: 16 adds, 7 replaced.
	if reply.Commands != 16 || reply.Added != 16 || reply.Replaced != 7 {
		t.Fatalf("batch reply = %+v", reply)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	pr, err := c.SendPacket(&openflow.Header{VLANID: 10, EthDst: 0xAABB00000003})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Outputs) != 1 || pr.Outputs[0] != 4 {
		t.Fatalf("packet outputs = %v, want [4]", pr.Outputs)
	}

	// Modify one host's output port via non-strict match on its MAC.
	reply, err = c.SendFlowMods([]FlowMod{{
		Op:    FlowModify,
		Table: 1,
		Entry: openflow.FlowEntry{
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldEthDst, 0xAABB00000003)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(77))},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Modified != 1 {
		t.Fatalf("modify reply = %+v", reply)
	}
	pr, err = c.SendPacket(&openflow.Header{VLANID: 10, EthDst: 0xAABB00000003})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Outputs) != 1 || pr.Outputs[0] != 77 {
		t.Fatalf("post-modify outputs = %v, want [77]", pr.Outputs)
	}

	// Cookie-filtered non-strict delete: all table-1 entries carry cookie
	// 10 (the VLAN), so this clears the whole MAC table.
	reply, err = c.SendFlowMods([]FlowMod{{
		Op:         FlowDelete,
		Table:      1,
		CookieMask: ^uint64(0),
		Entry:      openflow.FlowEntry{Cookie: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Deleted != 8 {
		t.Fatalf("delete reply = %+v", reply)
	}
	pr, err = c.SendPacket(&openflow.Header{VLANID: 10, EthDst: 0xAABB00000003})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Flags&ReplyToController == 0 {
		t.Fatalf("post-delete packet not sent to controller: %+v", pr)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tx != (core.TxCounters{Txs: 3, Commands: 18}) {
		t.Fatalf("tx stats = %+v", st.Tx)
	}
}

// TestFlowModBatchRejection: a batch with a failing command applies
// nothing, surfaces the switch error, and counts as rejected.
func TestFlowModBatchRejection(t *testing.T) {
	p, c, stop := startTxServer(t)
	defer stop()

	fms := macMods(20, 0xAABB00000001, 1)
	// Table 9 does not exist: the whole batch must be rejected.
	fms = append(fms, FlowMod{Op: FlowAdd, Table: 9, Entry: openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 1)},
	}})
	if _, err := c.SendFlowMods(fms); err == nil {
		t.Fatal("batch with unknown table committed")
	}
	if p.Rules() != 0 {
		t.Fatalf("rejected batch installed %d rules", p.Rules())
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tx.Rejected != 1 || st.Tx.Txs != 0 {
		t.Fatalf("tx stats after rejection = %+v", st)
	}
	// The connection survives the error.
	if _, err := c.SendFlowMods(macMods(20, 0xAABB00000001, 1)); err != nil {
		t.Fatalf("batch after rejection: %v", err)
	}
}

// TestSingleFlowModNewOps covers modify and delete-strict as batches of
// one command each.
func TestSingleFlowModNewOps(t *testing.T) {
	p, c, stop := startTxServer(t)
	defer stop()
	if _, err := c.SendFlowMods(macMods(30, 0xAABB00000001, 5)); err != nil {
		t.Fatal(err)
	}
	match := []openflow.Match{
		openflow.Exact(openflow.FieldMetadata, 30),
		openflow.Exact(openflow.FieldEthDst, 0xAABB00000001),
	}
	// Modify the table-1 entry's output, then strict-delete it.
	reply, err := c.SendFlowMods([]FlowMod{{Op: FlowModify, Table: 1, Entry: openflow.FlowEntry{
		Matches:      match,
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(6))},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Commands != 1 || reply.Modified != 1 {
		t.Fatalf("modify reply = %+v", reply)
	}
	if pr, err := c.SendPacket(&openflow.Header{VLANID: 30, EthDst: 0xAABB00000001}); err != nil || len(pr.Outputs) != 1 || pr.Outputs[0] != 6 {
		t.Fatalf("packet after modify = %+v, %v; want output 6", pr, err)
	}
	reply, err = c.SendFlowMods([]FlowMod{{Op: FlowDeleteStrict, Table: 1, Entry: openflow.FlowEntry{
		Priority: 1,
		Matches:  match,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Deleted != 1 || p.Rules() != 1 {
		t.Fatalf("strict delete reply = %+v, rules = %d; want 1 deleted, 1 left", reply, p.Rules())
	}
}

// TestFlowDeleteOpUniformSemantics pins the delete ops as batches of
// one: FlowDelete is the non-strict sweep (no error on zero matches),
// and the legacy erroring-exact-delete identity is FlowRemoveExact —
// which is what Client.DeleteFlow sends.
func TestFlowDeleteOpUniformSemantics(t *testing.T) {
	p, c, stop := startTxServer(t)
	defer stop()
	if _, err := c.SendFlowMods(macMods(40, 0xAABB00000001, 5)); err != nil {
		t.Fatal(err)
	}
	// Non-strict delete of a missing cover: clean no-op.
	fm := FlowMod{Op: FlowDelete, Table: 1, Entry: openflow.FlowEntry{
		Matches: []openflow.Match{openflow.Exact(openflow.FieldEthDst, 0xDEAD00000000)},
	}}
	if reply, err := c.SendFlowMods([]FlowMod{fm}); err != nil || reply.Deleted != 0 {
		t.Fatalf("non-strict delete of nothing = %+v, %v; want a clean no-op", reply, err)
	}
	// Non-strict delete by match only (priority and instructions
	// unstated) removes the entry.
	fm.Entry.Matches = []openflow.Match{openflow.Exact(openflow.FieldEthDst, 0xAABB00000001)}
	if _, err := c.SendFlowMods([]FlowMod{fm}); err != nil {
		t.Fatal(err)
	}
	if p.Rules() != 1 {
		t.Fatalf("rules = %d after non-strict delete, want 1", p.Rules())
	}
	// DeleteFlow (FlowRemoveExact) of a missing entry errors, preserving
	// the legacy client contract.
	gone := &openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldEthDst, 0xAABB00000001)},
	}
	if err := c.DeleteFlow(1, gone); err == nil {
		t.Fatal("DeleteFlow of missing entry succeeded")
	}
}
