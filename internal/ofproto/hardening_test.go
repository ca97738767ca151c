package ofproto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

// TestErrorCodecRoundTrip pins the structured error payload: type and
// code survive the wire, budget rejections classify as TABLE_FULL, and
// pre-v2 bare-text payloads still decode.
func TestErrorCodecRoundTrip(t *testing.T) {
	be := &core.BudgetError{Table: 3, BudgetBits: 1000, UsedBits: 1200}
	se := DecodeError(AppendError(nil, be))
	if !se.IsTableFull() || !IsTableFull(se) {
		t.Errorf("budget error decoded as %+v, want TABLE_FULL", se)
	}
	if se.Text != be.Error() {
		t.Errorf("text %q, want %q", se.Text, be.Error())
	}

	// Wrapped budget errors classify the same way.
	wrapped := fmt.Errorf("commit: %w", be)
	if se := DecodeError(AppendError(nil, wrapped)); !se.IsTableFull() {
		t.Errorf("wrapped budget error decoded as %+v", se)
	}

	// Generic errors are bad requests, not TABLE_FULL.
	se = DecodeError(AppendError(nil, errors.New("no such table")))
	if se.Type != ErrTypeBadRequest || se.IsTableFull() {
		t.Errorf("generic error decoded as %+v", se)
	}

	// A SwitchError re-encodes with its own classification.
	orig := &SwitchError{Type: ErrTypeFlowModFailed, Code: ErrCodeTableFull, Text: "full"}
	if se := DecodeError(AppendError(nil, orig)); se.Type != orig.Type || se.Code != orig.Code {
		t.Errorf("switch error re-encoded as %+v", se)
	}

	// Legacy bare-text payloads (shorter than the prefix) fall back.
	if se := DecodeError([]byte("abc")); se.Text != "abc" || se.IsTableFull() {
		t.Errorf("legacy payload decoded as %+v", se)
	}
	if !IsTableFull(fmt.Errorf("rpc: %w", orig)) {
		t.Error("IsTableFull should see through wrapping")
	}
	if IsTableFull(errors.New("plain")) {
		t.Error("IsTableFull matched a plain error")
	}
}

// TestTableFullEndToEnd drives a budget rejection through the wire: the
// client's flow-mod comes back as a structured TABLE_FULL error, the
// connection survives, and committed state is untouched.
func TestTableFullEndToEnd(t *testing.T) {
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldVLANID},
	}); err != nil {
		t.Fatal(err)
	}
	addr, stop := startTestServer(t, p)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	entry := func(vlan uint64) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, vlan)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(vlan)))},
		}
	}
	if err := c.AddFlow(0, entry(1)); err != nil {
		t.Fatal(err)
	}
	// Freeze the budget at current usage: the installed rule stays legal,
	// any growth is rejected.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ms := st.Memory
	if err := p.SetTableBudget(0, ms.TotalBits); err != nil {
		t.Fatal(err)
	}

	err = c.AddFlow(0, entry(2))
	if err == nil {
		t.Fatal("over-budget add should fail")
	}
	if !IsTableFull(err) {
		t.Fatalf("over-budget add returned %v, want TABLE_FULL", err)
	}
	// The batch path classifies identically.
	if _, err := c.SendFlowMods([]FlowMod{{Op: FlowAdd, Table: 0, Entry: *entry(3)}}); !IsTableFull(err) {
		t.Fatalf("over-budget batch returned %v, want TABLE_FULL", err)
	}

	// The connection survives and the budget travels in the stats reply.
	st, err = c.Stats()
	if err != nil {
		t.Fatalf("stats after rejection: %v", err)
	}
	ms2 := st.Memory
	if ms2.TotalBits != ms.TotalBits {
		t.Errorf("rejected commits moved accounting: %d -> %d bits", ms.TotalBits, ms2.TotalBits)
	}
	if ms2.Tables[0].BudgetBits != ms.TotalBits {
		t.Errorf("table budget on the wire = %d, want %d", ms2.Tables[0].BudgetBits, ms.TotalBits)
	}
	// Deleting under a full budget always works.
	if err := c.DeleteFlow(0, entry(1)); err != nil {
		t.Fatalf("delete under full budget: %v", err)
	}
}

// TestServerRecoversPanics is the regression test for handler panics: a
// message whose handler panics (here: a server wrapped around a nil
// pipeline) must produce an error reply and leave the connection — and
// the server — serving.
func TestServerRecoversPanics(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(nil, t.Logf) // nil pipeline: packet handling panics
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	conn := rawDial(t, l.Addr().String())
	defer func() { _ = conn.Close() }()
	if err := writePayload(conn, new([]byte), MsgPacketBatch, AppendPacketBatch(nil, []*openflow.Header{{}})); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading panic reply: %v", err)
	}
	if msg.Type != MsgError {
		t.Fatalf("expected error reply, got %s", msg.Type)
	}
	// The connection still serves after the recovered panic.
	if err := writePayload(conn, new([]byte), MsgBarrier, nil); err != nil {
		t.Fatal(err)
	}
	if msg, err = ReadMessage(conn); err != nil || msg.Type != MsgBarrierReply {
		t.Fatalf("barrier after panic: %v %v", msg.Type, err)
	}
	if got := srv.Counters().Panics; got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

// frameConn counts the writes that do not carry exactly one whole frame.
type frameConn struct {
	net.Conn
	writes, bad *atomic.Int64
}

func (c frameConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if msg, err := ReadMessage(bytes.NewReader(p)); err != nil || frameHeaderLen+len(msg.Payload) != len(p) {
		c.bad.Add(1)
	}
	return c.Conn.Write(p)
}

type frameListener struct {
	net.Listener
	writes, bad *atomic.Int64
}

func (l frameListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return frameConn{c, l.writes, l.bad}, nil
}

// TestEveryFrameIsOneWrite pins the one framer: every request the client
// sends and every reply the switch sends — hello, errors, empty replies
// and stats included — leaves in a single Write of exactly one frame.
func TestEveryFrameIsOneWrite(t *testing.T) {
	p := emptyMACPipeline(t)
	var writes, bad atomic.Int64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, t.Logf)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(frameListener{l, &writes, &bad})
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	c := &Client{conn: frameConn{rawDial(t, l.Addr().String()), &writes, &bad}}
	defer func() { _ = c.Close() }()
	e := &openflow.FlowEntry{
		Priority:     1,
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 7)},
		Instructions: []openflow.Instruction{openflow.GotoTable(1)},
	}
	steps := []func() error{
		c.Echo,
		func() error { return c.AddFlow(0, e) },
		func() error { _, err := c.SendPacket(&openflow.Header{VLANID: 7}); return err },
		func() error { _, err := c.SendPackets([]*openflow.Header{{VLANID: 7}, {VLANID: 8}}); return err },
		func() error { _, err := c.Stats(); return err },
		func() error { _, err := c.FlowStats(&FlowStatsRequest{Table: AllTables}); return err },
		func() error { _, err := c.AggregateStats(&AggregateStatsRequest{Table: AllTables}); return err },
		func() error {
			return c.SendGroupMod(&GroupMod{Op: GroupModAdd, ID: 1, Type: core.GroupAll, Buckets: [][]openflow.Action{{openflow.Output(2)}}})
		},
		func() error { return c.SubscribeFlowRemoved(true) },
		func() error { return c.DeleteFlow(0, e) },
		c.Barrier,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// An error reply is a frame too.
	if err := c.AddFlow(9, e); err == nil {
		t.Fatal("add to a missing table succeeded")
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	// hello + one request and one reply per step, the failed add and its
	// error, and the last barrier.
	if want := int64(1 + 2*len(steps) + 4); writes.Load() != want {
		t.Errorf("%d writes, want %d", writes.Load(), want)
	}
	if n := bad.Load(); n != 0 {
		t.Errorf("%d of %d writes were not exactly one frame", n, writes.Load())
	}
}

// TestServerShutdownDrains covers the graceful drain: Shutdown returns
// once the handlers exit, connected peers see a clean close, and new
// dials are refused.
func TestServerShutdownDrains(t *testing.T) {
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

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if got := srv.Counters().Active; got != 0 {
		t.Errorf("%d connections active after drain", got)
	}
	// The drained client's connection is closed...
	if err := c.Barrier(); err == nil {
		t.Error("barrier on a drained connection should fail")
	}
	// ...and the listener is gone.
	if _, err := Dial(l.Addr().String()); err == nil {
		t.Error("dial after shutdown should fail")
	}
	// A second shutdown (or close) is a clean no-op.
	if err := srv.Close(); err != nil {
		t.Errorf("close after shutdown: %v", err)
	}
}

// TestDeadPeerDetection covers the keepalive: an idle peer gets an echo
// probe; one that stays silent is disconnected and counted.
func TestDeadPeerDetection(t *testing.T) {
	p := emptyMACPipeline(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithOptions(p, ServerOptions{Logf: t.Logf, ReadTimeout: 100 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	conn := rawDial(t, l.Addr().String())
	defer func() { _ = conn.Close() }()
	// First the probe arrives...
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("awaiting echo probe: %v", err)
	}
	if msg.Type != MsgEchoRequest {
		t.Fatalf("expected echo probe, got %s", msg.Type)
	}
	// ...then, with the probe unanswered, the disconnect.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadMessage(conn); err == nil {
		t.Fatal("silent peer should have been disconnected")
	}
	if got := srv.Counters().DeadPeers; got != 1 {
		t.Errorf("dead-peer counter = %d, want 1", got)
	}
}

// TestKeepAliveSurvival is the other half: a peer that answers its
// probes stays connected through many idle periods, and the stock
// Client answers them transparently mid-request.
func TestKeepAliveSurvival(t *testing.T) {
	p := emptyMACPipeline(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithOptions(p, ServerOptions{Logf: t.Logf, ReadTimeout: 50 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	conn := rawDial(t, l.Addr().String())
	defer func() { _ = conn.Close() }()
	// Answer three probe cycles by hand.
	for i := 0; i < 3; i++ {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		msg, err := ReadMessage(conn)
		if err != nil {
			t.Fatalf("probe cycle %d: %v", i, err)
		}
		if msg.Type != MsgEchoRequest {
			t.Fatalf("probe cycle %d: got %s", i, msg.Type)
		}
		if err := writePayload(conn, new([]byte), MsgEchoReply, msg.Payload); err != nil {
			t.Fatal(err)
		}
	}
	// The connection still serves requests.
	if err := writePayload(conn, new([]byte), MsgBarrier, nil); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if msg, err := ReadMessage(conn); err != nil || msg.Type != MsgBarrierReply {
		t.Fatalf("barrier after probes: %v %v", msg.Type, err)
	}
	if got := srv.Counters().DeadPeers; got != 0 {
		t.Errorf("dead-peer counter = %d for a live peer", got)
	}
}

// TestClientAnswersInterleavedProbe pins the client-side half of the
// keepalive, deterministically: a server whose probe lands between a
// request and its reply must get its echo answered, and the client must
// still deliver the real reply to the caller.
func TestClientAnswersInterleavedProbe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			conn, err := l.Accept()
			if err != nil {
				return err
			}
			defer func() { _ = conn.Close() }()
			if err := writePayload(conn, new([]byte), MsgHello, []byte{ProtocolVersion}); err != nil {
				return err
			}
			msg, err := ReadMessage(conn)
			if err != nil || msg.Type != MsgBarrier {
				return fmt.Errorf("expected barrier, got %v %v", msg.Type, err)
			}
			// Probe before answering: the client must echo back first.
			if err := writePayload(conn, new([]byte), MsgEchoRequest, []byte("ping")); err != nil {
				return err
			}
			reply, err := ReadMessage(conn)
			if err != nil || reply.Type != MsgEchoReply || string(reply.Payload) != "ping" {
				return fmt.Errorf("expected echoed ping, got %v %q %v", reply.Type, reply.Payload, err)
			}
			return writePayload(conn, new([]byte), MsgBarrierReply, nil)
		}()
	}()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Barrier(); err != nil {
		t.Fatalf("barrier through interleaved probe: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
}

// TestClientEcho round-trips the client-initiated keepalive against a
// real server.
func TestClientEcho(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Echo(); err != nil {
		t.Fatalf("echo: %v", err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatalf("barrier after echo: %v", err)
	}
}

// TestClientTimeoutOnDeadSwitch covers the controller side: with a read
// timeout configured, a switch that accepts but never answers surfaces
// as a timeout error instead of a hang.
func TestClientTimeoutOnDeadSwitch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Speak the hello, then go silent forever.
			_ = writePayload(conn, new([]byte), MsgHello, []byte{ProtocolVersion})
		}
	}()

	ctx := context.Background()
	c, err := DialContext(ctx, l.Addr().String(), DialOptions{
		DialTimeout: time.Second,
		ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	start := time.Now()
	err = c.Barrier()
	if err == nil {
		t.Fatal("barrier against a dead switch should fail")
	}
	if !isTimeout(err) {
		t.Errorf("dead switch surfaced as %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestReconnectReplay covers the self-healing client: a dropped
// connection redials with backoff and replays the request; semantic
// switch errors are surfaced immediately without a retry.
func TestReconnectReplay(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()

	rc := NewReconnClient(addr, DialOptions{DialTimeout: time.Second})
	rc.BackoffMin = time.Millisecond
	rc.Logf = t.Logf
	defer func() { _ = rc.Close() }()

	ctx := context.Background()
	add := []FlowMod{{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
		Priority:     1,
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 7)},
		Instructions: []openflow.Instruction{openflow.GotoTable(1)},
	}}}
	if _, err := rc.SendFlowMods(ctx, add); err != nil {
		t.Fatal(err)
	}

	// Kill the connection under the client; the next request must
	// transparently redial and replay.
	_ = rc.c.conn.Close()
	reply, err := rc.SendFlowMods(ctx, add)
	if err != nil {
		t.Fatalf("replay after drop: %v", err)
	}
	if reply.Replaced != 1 {
		t.Errorf("replayed add replaced %d entries, want 1 (idempotent re-add)", reply.Replaced)
	}
	if rc.Redials != 1 {
		t.Errorf("redials = %d, want 1", rc.Redials)
	}

	// Committed state survived the reconnect.
	st, err := rc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRules() != 1 {
		t.Errorf("total rules = %d after reconnect, want 1", st.TotalRules())
	}

	// A semantic error is not retried: the redial count stays put.
	bad := []FlowMod{{Op: FlowAdd, Table: 99, Entry: add[0].Entry}}
	_, err = rc.SendFlowMods(ctx, bad)
	var se *SwitchError
	if !errors.As(err, &se) {
		t.Fatalf("bad flow-mod returned %v, want *SwitchError", err)
	}
	if rc.Redials != 1 {
		t.Errorf("semantic error triggered a reconnect (redials = %d)", rc.Redials)
	}

	// With the server gone, the client gives up with the dial error
	// after its bounded attempts.
	stop()
	rc.MaxAttempts = 2
	if err := rc.Barrier(ctx); err == nil {
		t.Error("barrier against a stopped server should fail")
	}
}
