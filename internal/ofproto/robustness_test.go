package ofproto

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// rawDial opens a TCP connection and consumes the server hello.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	return conn
}

func TestDialErrorPaths(t *testing.T) {
	// Nothing listening.
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
	// A server that speaks the wrong hello: an unknown version, and 3,
	// the last version that spoke the single packet and flow-mod pairs.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	for _, v := range []byte{99, 3} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := l.Accept()
			if err != nil {
				return
			}
			_ = writePayload(conn, new([]byte), MsgHello, []byte{v})
			_ = conn.Close()
		}()
		if _, err := Dial(l.Addr().String()); err == nil {
			t.Errorf("hello version %d should fail the dial", v)
		}
		<-done
	}
	// A server that sends a non-hello first message.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = writePayload(conn, new([]byte), MsgBarrier, nil)
		_ = conn.Close()
	}()
	if _, err := Dial(l.Addr().String()); err == nil {
		t.Error("non-hello greeting should fail the dial")
	}
}

// surviving pins every message type the protocol speaks to its wire
// number. The numbers are the protocol: renumbering one (say, by
// deleting a constant from the iota list instead of leaving a
// placeholder) breaks every peer of another build.
var surviving = map[MsgType]struct {
	num  uint8
	name string
}{
	MsgHello:                     {1, "hello"},
	MsgError:                     {2, "error"},
	MsgStatsRequest:              {7, "stats-request"},
	MsgStatsReply:                {8, "stats-reply"},
	MsgBarrier:                   {9, "barrier"},
	MsgBarrierReply:              {10, "barrier-reply"},
	MsgPacketBatch:               {11, "packet-batch"},
	MsgPacketBatchReply:          {12, "packet-batch-reply"},
	MsgFlowModBatch:              {13, "flow-mod-batch"},
	MsgFlowModBatchReply:         {14, "flow-mod-batch-reply"},
	MsgEchoRequest:               {19, "echo-request"},
	MsgEchoReply:                 {20, "echo-reply"},
	MsgFlowStatsRequest:          {21, "flow-stats-request"},
	MsgFlowStatsReply:            {22, "flow-stats-reply"},
	MsgAggregateStatsRequest:     {23, "aggregate-stats-request"},
	MsgAggregateStatsReply:       {24, "aggregate-stats-reply"},
	MsgGroupMod:                  {25, "group-mod"},
	MsgGroupModReply:             {26, "group-mod-reply"},
	MsgFlowRemovedSubscribe:      {27, "flow-removed-subscribe"},
	MsgFlowRemovedSubscribeReply: {28, "flow-removed-subscribe-reply"},
	MsgFlowRemoved:               {29, "flow-removed"},
}

// retired are the numbers of the single flow-mod and packet pairs and
// of the memory-, cache- and advisor-stats pairs, reserved so no later
// message reuses them.
var retired = []uint8{3, 4, 5, 6, 15, 16, 17, 18, 30, 31}

func TestMsgTypeNumbersPinned(t *testing.T) {
	for typ, want := range surviving {
		if uint8(typ) != want.num {
			t.Errorf("%s = %d, want %d", want.name, uint8(typ), want.num)
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for typ, want := range surviving {
		if got := typ.String(); got != want.name {
			t.Errorf("%d.String() = %q, want %q", typ, got, want.name)
		}
	}
	for _, n := range append(retired, 0, 99) {
		if got := MsgType(n).String(); got != "unknown" {
			t.Errorf("%d.String() = %q, want unknown", n, got)
		}
	}
}

// TestRetiredStatsRequestsRejected sends each retired request on a raw
// connection — the single flow-mod and packet (with the payloads a
// version-3 peer sent) and the stats pairs — and a version-3 hello: the
// switch must answer each with a bad-request error, and the same
// connection must then serve a packet batch and the one stats report.
func TestRetiredStatsRequestsRejected(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()
	conn := rawDial(t, addr)
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	fm := FlowMod{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 9)},
	}}
	for _, req := range []struct {
		typ     MsgType
		payload []byte
	}{
		{3, appendFlowMod(nil, &fm)},
		{5, openflow.AppendHeader(nil, &openflow.Header{VLANID: 9})},
		{15, nil},
		{17, nil},
		{30, nil},
		{MsgHello, []byte{3}},
	} {
		if err := writePayload(conn, new([]byte), req.typ, req.payload); err != nil {
			t.Fatal(err)
		}
		msg, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("type %d: reading reply: %v", req.typ, err)
		}
		if msg.Type != MsgError {
			t.Fatalf("type %d answered %s, want error", req.typ, msg.Type)
		}
		if se := DecodeError(msg.Payload); se.Type != ErrTypeBadRequest {
			t.Fatalf("type %d answered error type %d, want bad request", req.typ, se.Type)
		}
	}
	if p.Rules() != 0 {
		t.Fatalf("a retired flow-mod installed %d rules", p.Rules())
	}
	c := &Client{conn: conn}
	rs, err := c.SendPackets([]*openflow.Header{{VLANID: 9}, {VLANID: 10}})
	if err != nil {
		t.Fatalf("packet batch after retired requests: %v", err)
	}
	if len(rs) != 2 || rs[0].Flags&ReplyToController == 0 {
		t.Errorf("packet batch after retired requests answered %+v, want two controller misses", rs)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats after retired requests: %v", err)
	}
	if len(st.Tables) != 2 {
		t.Errorf("stats after retired requests report %d tables, want 2", len(st.Tables))
	}
}

// TestServerSurvivesGarbage feeds the server random bytes and malformed
// frames; the server must drop the connection (or answer with errors)
// without crashing, and keep serving well-formed clients afterwards.
func TestServerSurvivesGarbage(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()

	rng := xrand.New(31337)
	for round := 0; round < 20; round++ {
		conn := rawDial(t, addr)
		n := 1 + rng.Intn(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		_, _ = conn.Write(buf)
		_ = conn.Close()
	}

	// Malformed but well-framed payloads: the server must answer MsgError
	// and keep the connection.
	conn := rawDial(t, addr)
	defer func() { _ = conn.Close() }()
	if err := writePayload(conn, new([]byte), MsgFlowModBatch, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if msg.Type != MsgError {
		t.Fatalf("expected error reply, got %s", msg.Type)
	}

	// An oversized frame header closes the connection without panicking.
	bad := rawDial(t, addr)
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxMessageLen+1)
	hdr[4] = byte(MsgBarrier)
	_, _ = bad.Write(hdr[:])
	_ = bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := bad.Read(buf); err == nil {
		// The server may send an error first; a second read must fail as
		// the connection closes.
		if _, err := bad.Read(buf); err == nil {
			t.Error("server kept an oversized-frame connection open")
		}
	}
	_ = bad.Close()

	// A well-behaved client still works.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Barrier(); err != nil {
		t.Fatalf("barrier after garbage storm: %v", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after garbage storm: %v", err)
	}
}

// TestDecodersBoundCountsByPayload pins the bytes a decoder allocates for
// a payload whose u16 count promises far more records than its bytes can
// hold. Sizing buffers from the count alone turned the 2-byte payload
// ff ff into megabytes, kept for the connection's life; a decoder must
// check the count against the payload first, so its allocation stays
// O(payload).
func TestDecodersBoundCountsByPayload(t *testing.T) {
	// One flow-mod whose entry claims 0xFFFF instructions and carries none.
	hugeInstrs := append([]byte{0, 1, byte(FlowAdd), 0}, make([]byte, 8)...)
	hugeInstrs = append(hugeInstrs, make([]byte, openflow.MinFlowEntryLen)...)
	binary.BigEndian.PutUint16(hugeInstrs[2+flowModHeaderLen+14:], 0xFFFF)
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"packet-batch", []byte{0xFF, 0xFF}, func(b []byte) error {
			_, _, err := DecodePacketBatchArena(b, nil, nil)
			return err
		}},
		{"flow-mod-batch", []byte{0xFF, 0xFF}, func(b []byte) error {
			_, err := DecodeFlowModBatchArena(b, nil, &openflow.EntryArena{})
			return err
		}},
		{"flow-mod instructions", hugeInstrs, func(b []byte) error {
			_, err := DecodeFlowModBatchArena(b, nil, &openflow.EntryArena{})
			return err
		}},
		{"flow-removed", []byte{0xFF, 0xFF}, func(b []byte) error {
			_, err := DecodeFlowRemovedInto(nil, b, &openflow.EntryArena{})
			return err
		}},
		{"flow-stats-reply", []byte{0, 0, 0, 0, 0, 0xFF, 0xFF}, func(b []byte) error {
			return DecodeFlowStatsReplyInto(&FlowStatsReply{}, b, &openflow.EntryArena{})
		}},
		{"group-mod", []byte{byte(GroupModAdd), 0, 0, 0, 1, 0, 0xFF, 0xFF}, func(b []byte) error {
			_, err := DecodeGroupMod(b)
			return err
		}},
		{"packet-batch-reply", []byte{0xFF, 0xFF}, func(b []byte) error {
			_, _, err := DecodePacketBatchReplyInto(b, nil, nil)
			return err
		}},
	} {
		limit := uint64(4096 + 64*len(c.payload))
		// The least of a few runs on fresh buffers, so a stray allocation
		// elsewhere in the process cannot fail the pin.
		least := ^uint64(0)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(c.payload)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: decoded a %d-byte payload that cannot hold its count", c.name, len(c.payload))
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > limit {
			t.Errorf("%s: a %d-byte payload allocated %d bytes, want at most %d", c.name, len(c.payload), least, limit)
		}
	}
}
