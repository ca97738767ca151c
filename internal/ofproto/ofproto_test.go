package ofproto

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"ofmtl/internal/openflow"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello world")
	if err := WriteFrame(&buf, MsgStatsReply, append(BeginFrame(nil), payload...)); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgStatsReply || !bytes.Equal(msg.Payload, payload) {
		t.Errorf("round trip = %v %q", msg.Type, msg.Payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgBarrier, BeginFrame(nil)); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgBarrier || len(msg.Payload) != 0 {
		t.Errorf("empty payload round trip = %v %q", msg.Type, msg.Payload)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	raw := append(BeginFrame(nil), ProtocolVersion)
	if err := WriteFrame(io.Discard, MsgHello, raw); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadMessage(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated read at %d should fail", cut)
		}
	}
}

func TestReadMessageBoundsLength(t *testing.T) {
	// A frame claiming 100 MB must be rejected before allocation.
	raw := []byte{0x06, 0x40, 0x00, 0x00}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Error("oversized frame should be rejected")
	}
	raw = []byte{0, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Error("zero-length frame should be rejected")
	}
}

func TestHello(t *testing.T) {
	if err := DecodeHello([]byte{ProtocolVersion}); err != nil {
		t.Errorf("hello round trip: %v", err)
	}
	if err := DecodeHello([]byte{99}); err == nil {
		t.Error("wrong version should fail")
	}
	if err := DecodeHello([]byte{3}); err == nil {
		t.Error("a version-3 peer (single packet and flow-mod pairs) should fail")
	}
	if err := DecodeHello(nil); err == nil {
		t.Error("empty hello should fail")
	}
}

// TestFlowModRoundTrip round-trips one flow-mod as a batch of one, the
// only way a flow-mod travels.
func TestFlowModRoundTrip(t *testing.T) {
	fm := &FlowMod{
		Op:    FlowAdd,
		Table: 3,
		Entry: openflow.FlowEntry{
			Priority: 17,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 5)},
			Instructions: []openflow.Instruction{
				openflow.GotoTable(4),
				openflow.WriteActions(openflow.Output(2)),
			},
		},
	}
	payload := AppendFlowModBatch(nil, []FlowMod{*fm})
	got, err := DecodeFlowModBatchArena(payload, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(*fm, got[0]) {
		t.Errorf("flow-mod round trip:\n in: %+v\nout: %+v", fm, got)
	}
	bad := AppendFlowModBatch(nil, []FlowMod{*fm})
	bad[2] = 9
	if _, err := DecodeFlowModBatchArena(bad, nil, nil); err == nil {
		t.Error("unknown op should fail")
	}
	if _, err := DecodeFlowModBatchArena([]byte{0, 1}, nil, nil); err == nil {
		t.Error("empty flow-mod should fail")
	}
	// Trailing garbage must be rejected.
	if _, err := DecodeFlowModBatchArena(append(payload, 0xFF), nil, nil); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestPacketReplyRoundTrip round-trips one pipeline result as the reply
// to a batch of one, the only way a result travels.
func TestPacketReplyRoundTrip(t *testing.T) {
	r := PacketReply{Flags: ReplyMatched, Outputs: []uint32{1, 2, 77}}
	got, err := DecodePacketBatchReply(AppendPacketBatchReply(nil, []PacketReply{r}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(r, got[0]) {
		t.Errorf("packet-reply round trip: %+v != %+v", r, got)
	}
	if _, err := DecodePacketBatchReply([]byte{0, 1, 1}); err == nil {
		t.Error("short reply should fail")
	}
}

// TestPacketBatchReplyInto pins the client-owned decode: round trip,
// buffers reused without allocating, reply windows that cannot grow into
// each other, and malformed payloads rejected rather than overrunning
// the pre-sized arena.
func TestPacketBatchReplyInto(t *testing.T) {
	want := []PacketReply{
		{Flags: ReplyMatched, Outputs: []uint32{1, 2, 77}},
		{Flags: ReplyToController},
		{Flags: ReplyMatched, Outputs: []uint32{9}},
	}
	payload := AppendPacketBatchReply(nil, want)
	if got, err := DecodePacketBatchReply(payload); err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("fresh decode: %+v, %v; want %+v", got, err, want)
	}
	rs, ports, err := DecodePacketBatchReplyInto(payload, nil, nil)
	if err != nil || !reflect.DeepEqual(want, rs) {
		t.Fatalf("decode into nil buffers: %+v, %v; want %+v", rs, err, want)
	}
	if n := testing.AllocsPerRun(100, func() {
		rs, ports, err = DecodePacketBatchReplyInto(payload, rs, ports)
	}); n != 0 || err != nil || !reflect.DeepEqual(want, rs) {
		t.Errorf("decode into reused buffers: %v allocs, %+v, %v", n, rs, err)
	}
	_ = append(rs[0].Outputs, 1234)
	if rs[2].Outputs[0] != 9 {
		t.Errorf("appending to one reply's outputs overwrote the next: %+v", rs)
	}
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"truncated":      payload[:len(payload)-1],
		"trailing":       append(append([]byte(nil), payload...), 0),
		"count too high": append([]byte{0xFF, 0xFF}, payload[2:]...),
		"one byte short": {0, 1, ReplyToController, 0},
		"ports too high": {0, 1, ReplyMatched, 0xFF, 0xFF, 0, 0, 0, 1},
	} {
		if got, _, err := DecodePacketBatchReplyInto(bad, rs, ports); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, got)
		}
	}
}

func TestErrorsAreErrors(t *testing.T) {
	if !errors.Is(openflow.ErrTruncated, openflow.ErrTruncated) {
		t.Error("sanity")
	}
	if len(AppendError(nil, errors.New("boom"))) == 0 {
		t.Error("empty error encoding")
	}
}
