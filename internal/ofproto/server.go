package ofproto

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/openflow"
)

// Server hosts a lookup pipeline behind the control protocol. One
// goroutine serves each controller connection. Packet classification is
// lock-free — connections execute in parallel against the pipeline's
// RCU-style snapshot — while flow-table mutations serialise inside the
// pipeline's write lock.
//
// The wire layer is hardened for unattended operation: handler panics
// are recovered per connection (one bad message cannot take the switch
// down), reads and writes carry deadlines, idle peers are probed with
// echo requests and disconnected when they stop answering, and
// Shutdown drains in-flight requests before closing.
type Server struct {
	mu       sync.Mutex // guards listener and conns
	pipeline *core.Pipeline

	wg        sync.WaitGroup
	listener  net.Listener
	conns     map[net.Conn]struct{}
	closed    chan struct{}
	closeOnce sync.Once
	draining  atomic.Bool
	logf      func(format string, args ...any)

	readTimeout  time.Duration
	writeTimeout time.Duration

	accepted  atomic.Uint64
	active    atomic.Int64
	panics    atomic.Uint64
	deadPeers atomic.Uint64
}

// ServerOptions tunes the hardened wire layer. The zero value disables
// every timeout (reads block forever, no keepalive probing) —
// byte-compatible with the pre-hardening behaviour.
type ServerOptions struct {
	// Logf receives connection-level events; nil discards them.
	Logf func(format string, args ...any)
	// ReadTimeout bounds one read from a peer. A peer idle at a frame
	// boundary for this long is probed with an echo request and
	// disconnected if another ReadTimeout passes without traffic; a
	// peer that stalls mid-frame is disconnected outright (the framing
	// cannot be resumed). 0 disables the deadline and the keepalive.
	ReadTimeout time.Duration
	// WriteTimeout bounds one write to a peer; a peer that stops
	// draining its socket is disconnected rather than wedging the
	// handler. 0 disables it.
	WriteTimeout time.Duration
}

// NewServer wraps a pipeline with default options. logf receives
// connection-level events; nil discards them.
func NewServer(p *core.Pipeline, logf func(format string, args ...any)) *Server {
	return NewServerWithOptions(p, ServerOptions{Logf: logf})
}

// NewServerWithOptions wraps a pipeline with explicit wire-layer
// tunables.
func NewServerWithOptions(p *core.Pipeline, opts ServerOptions) *Server {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		pipeline:     p,
		conns:        make(map[net.Conn]struct{}),
		closed:       make(chan struct{}),
		logf:         logf,
		readTimeout:  opts.ReadTimeout,
		writeTimeout: opts.WriteTimeout,
	}
}

// ServerCounters reports the server's connection-level telemetry.
type ServerCounters struct {
	// Accepted counts connections accepted over the server's lifetime.
	Accepted uint64
	// Active is the number of connections currently being served.
	Active int64
	// Panics counts handler panics recovered (the connection survived
	// and got an error reply).
	Panics uint64
	// DeadPeers counts connections dropped by the keepalive: idle past
	// the read timeout and silent through an echo probe.
	DeadPeers uint64
}

// Counters returns the connection telemetry. Lock-free.
func (s *Server) Counters() ServerCounters {
	return ServerCounters{
		Accepted:  s.accepted.Load(),
		Active:    s.active.Load(),
		Panics:    s.panics.Load(),
		DeadPeers: s.deadPeers.Load(),
	}
}

// Serve accepts controller connections until Close or Shutdown is
// called. It returns after the listener fails or closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	select {
	case <-s.closed:
		// Close ran before Serve stored the listener; it could not close
		// it, so do it here instead of accepting forever.
		s.mu.Unlock()
		_ = l.Close()
		return nil
	default:
	}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
			}
			return fmt.Errorf("ofproto: accept: %w", err)
		}
		if err := failpoint.Inject(failpoint.SiteAccept); err != nil {
			s.logf("ofproto: accept %s: %v", conn.RemoteAddr(), err)
			_ = conn.Close()
			continue
		}
		s.accepted.Add(1)
		s.mu.Lock()
		select {
		case <-s.closed:
			// Close/Shutdown swept the conns map already; a connection
			// registered now would never be closed. Drop it instead.
			s.mu.Unlock()
			_ = conn.Close()
			continue
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.active.Add(1)
			defer s.active.Add(-1)
			s.serveConn(conn)
		}()
	}
}

// Close stops the listener, disconnects every peer and waits for the
// handlers. It is idempotent: second and later calls wait for shutdown
// and return nil. For a drain that lets in-flight requests finish
// first, use Shutdown.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		close(s.closed)
		s.mu.Lock()
		l := s.listener
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		if l != nil {
			err = l.Close()
		}
	})
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: it stops accepting, lets every
// in-flight request run to completion (its reply flushes before the
// connection closes — a barrier over all connections), then closes the
// connections. If ctx expires first the remaining connections are
// closed immediately and ctx's error is returned. Like Close, later
// calls to either are no-ops that wait for the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		close(s.closed)
		s.mu.Lock()
		l := s.listener
		// Nudge idle handlers off their blocking reads; serveConn sees
		// the draining flag and exits cleanly at the frame boundary. A
		// handler mid-dispatch finishes and flushes its reply first.
		now := time.Now()
		for c := range s.conns {
			_ = c.SetReadDeadline(now)
		}
		s.mu.Unlock()
		if l != nil {
			_ = l.Close()
		}
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		if err := conn.Close(); err != nil && !s.draining.Load() {
			s.logf("ofproto: closing %s: %v", conn.RemoteAddr(), err)
		}
	}()
	tc := &timeoutConn{
		Conn:         conn,
		readTimeout:  s.readTimeout,
		writeTimeout: s.writeTimeout,
		inject:       true,
		draining:     &s.draining,
	}

	cs := &connState{}
	if err := writePayload(tc, &cs.out, MsgHello, []byte{ProtocolVersion}); err != nil {
		s.logf("ofproto: hello to %s: %v", conn.RemoteAddr(), err)
		return
	}
	probed := false
	for {
		nreadBefore := tc.nread
		msg, buf, err := ReadMessageBuf(tc, cs.readBuf)
		cs.readBuf = buf
		if err != nil {
			if s.draining.Load() {
				return
			}
			switch {
			case isTimeout(err) && tc.nread == nreadBefore && !probed:
				// Idle at a frame boundary: probe before giving up on
				// the peer.
				if werr := writePayload(tc, &cs.out, MsgEchoRequest, nil); werr != nil {
					s.logf("ofproto: echo probe to %s: %v", conn.RemoteAddr(), werr)
					return
				}
				probed = true
				continue
			case isTimeout(err):
				// Silent through a probe, or stalled mid-frame (the
				// framing cannot be resumed either way).
				s.deadPeers.Add(1)
				s.logf("ofproto: dead peer %s: %v", conn.RemoteAddr(), err)
				return
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.logf("ofproto: reading from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		probed = false
		switch msg.Type {
		case MsgEchoRequest:
			if werr := writePayload(tc, &cs.out, MsgEchoReply, msg.Payload); werr != nil {
				return
			}
			continue
		case MsgEchoReply:
			// A probe answer (any traffic already cleared the probe).
			continue
		}
		if err := s.dispatchRecover(tc, cs, msg); err != nil {
			s.logf("ofproto: handling %s from %s: %v", msg.Type, conn.RemoteAddr(), err)
			cs.out = AppendError(BeginFrame(cs.out), err)
			if werr := WriteFrame(tc, MsgError, cs.out); werr != nil {
				return
			}
		}
	}
}

// dispatchRecover runs one message through the handler, converting a
// handler panic into an error reply so one poisoned message cannot take
// down the switch (or even its own connection).
func (s *Server) dispatchRecover(conn net.Conn, cs *connState, msg Message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.logf("ofproto: panic handling %s: %v", msg.Type, r)
			err = fmt.Errorf("ofproto: internal error handling %s", msg.Type)
		}
	}()
	return s.dispatch(conn, cs, msg)
}

// connState carries one connection's reusable buffers: the frame read
// buffer, the decoded-header arena, the pipeline reply slice and the
// outgoing frame under construction. Messages on one connection are
// handled sequentially, so reusing them is safe; in steady state a
// packet-batch round trip performs no per-message allocation.
type connState struct {
	readBuf []byte
	hs      []*openflow.Header
	arena   []openflow.Header
	results []core.Result
	replies []PacketReply
	out     []byte
	// Flow-mod batch decode buffers: the command slice and the entry
	// arena its matches/instructions/actions live in. The pipeline copies
	// entries on insert, so both are safe to reuse per message.
	fms     []FlowMod
	fmArena openflow.EntryArena
	// Flow-lifecycle state: the reused scrape page, the flow-removed
	// subscription flag and its drain cursor, and the reused
	// notification batch buffer.
	flowReply     FlowStatsReply
	subscribed    bool
	removedCursor uint64
	removedMsgs   []FlowRemovedMsg
}

// flowStatsPageMax caps one flow-stats page; flowStatsPageDefault is
// used when the request leaves Max zero. Bounded pages keep any single
// reply frame under MaxMessageLen even for million-flow scrapes — the
// cursor walk spreads the scrape over as many frames as needed without
// ever pausing commits (the underlying visit is lock-free).
const (
	flowStatsPageDefault = 256
	flowStatsPageMax     = 1024
)

func (s *Server) dispatch(conn net.Conn, cs *connState, msg Message) error {
	// A subscribed connection receives pending flow-removed
	// notifications ahead of its next reply: the async frames flush
	// first, so the client's reply reader drains them inline before the
	// answer to its own request arrives.
	if cs.subscribed {
		if err := s.flushRemoved(conn, cs); err != nil {
			return err
		}
	}
	switch msg.Type {
	case MsgHello:
		return DecodeHello(msg.Payload)
	case MsgFlowModBatch:
		fms, err := DecodeFlowModBatchArena(msg.Payload, cs.fms, &cs.fmArena)
		cs.fms = fms
		if err != nil {
			return err
		}
		// The whole batch is one transaction: it validates and applies
		// atomically, publishes one snapshot, and invalidates the
		// microflow cache once — regardless of the batch size. The
		// pipeline takes its write lock internally; lookups racing the
		// commit keep executing against the previous snapshot.
		tx := s.pipeline.Begin()
		for i := range fms {
			tx.FlowMod(coreCmd(&fms[i]))
		}
		res, err := tx.Commit()
		if err != nil {
			return err
		}
		reply := FlowModBatchReply{
			Commands: uint32(res.Commands),
			Added:    uint32(res.Added),
			Replaced: uint32(res.Replaced),
			Modified: uint32(res.Modified),
			Deleted:  uint32(res.Deleted),
		}
		cs.out = AppendFlowModBatchReply(BeginFrame(cs.out), &reply)
		return WriteFrame(conn, MsgFlowModBatchReply, cs.out)
	case MsgPacketBatch:
		hs, arena, err := DecodePacketBatchArena(msg.Payload, cs.hs, cs.arena)
		cs.arena = arena
		if err != nil {
			return err
		}
		cs.hs = hs
		cs.results = s.pipeline.ExecuteBatchInto(hs, cs.results)
		cs.replies = cs.replies[:0]
		for i := range cs.results {
			cs.replies = append(cs.replies, replyOf(&cs.results[i]))
		}
		cs.out = AppendPacketBatchReply(BeginFrame(cs.out), cs.replies)
		return WriteFrame(conn, MsgPacketBatchReply, cs.out)
	case MsgStatsRequest:
		out, err := AppendStats(BeginFrame(cs.out), CollectStats(s.pipeline))
		cs.out = out
		if err != nil {
			return err
		}
		return WriteFrame(conn, MsgStatsReply, cs.out)
	case MsgFlowStatsRequest:
		var req FlowStatsRequest
		if err := DecodeFlowStatsRequestInto(&req, msg.Payload); err != nil {
			return err
		}
		max := int(req.Max)
		if max <= 0 || max > flowStatsPageMax {
			if max <= 0 {
				max = flowStatsPageDefault
			} else {
				max = flowStatsPageMax
			}
		}
		table := -1
		if req.Table != AllTables {
			table = int(req.Table)
		}
		cs.flowReply.Flows = cs.flowReply.Flows[:0]
		// The visit is lock-free against the published flow directory,
		// so a scrape — even of a million flows, page after page —
		// never pauses commits or packet traffic.
		next, more := s.pipeline.VisitFlows(table, req.Cookie, req.CookieMask, req.Cursor, max, func(fs *core.FlowStats) bool {
			cs.flowReply.Flows = append(cs.flowReply.Flows, FlowStatsRow{
				Table:   uint8(fs.Table),
				Age:     fs.Age,
				IdleAge: fs.IdleAge,
				Packets: fs.Packets,
				Bytes:   fs.Bytes,
				Entry:   *fs.Entry,
			})
			return true
		})
		cs.flowReply.Next = next
		cs.flowReply.More = more
		cs.out = AppendFlowStatsReply(BeginFrame(cs.out), &cs.flowReply)
		return WriteFrame(conn, MsgFlowStatsReply, cs.out)
	case MsgAggregateStatsRequest:
		var req AggregateStatsRequest
		if err := DecodeAggregateStatsRequestInto(&req, msg.Payload); err != nil {
			return err
		}
		table := -1
		if req.Table != AllTables {
			table = int(req.Table)
		}
		agg := s.pipeline.AggregateFlowStats(table, req.Cookie, req.CookieMask)
		reply := AggregateStatsReply{Packets: agg.Packets, Bytes: agg.Bytes, Flows: agg.Flows}
		cs.out = AppendAggregateStatsReply(BeginFrame(cs.out), &reply)
		return WriteFrame(conn, MsgAggregateStatsReply, cs.out)
	case MsgGroupMod:
		gm, err := DecodeGroupMod(msg.Payload)
		if err != nil {
			return err
		}
		if err := s.applyGroupMod(gm); err != nil {
			return err
		}
		return writePayload(conn, &cs.out, MsgGroupModReply, nil)
	case MsgFlowRemovedSubscribe:
		if len(msg.Payload) != 1 {
			return fmt.Errorf("ofproto: flow-removed-subscribe payload of %d bytes, want 1", len(msg.Payload))
		}
		cs.subscribed = msg.Payload[0] != 0
		if cs.subscribed {
			// Start at the current head: the subscriber sees expiries
			// from now on, not the retained backlog.
			_, next, _ := s.pipeline.FlowRemovedSince(^uint64(0))
			cs.removedCursor = next
		}
		return writePayload(conn, &cs.out, MsgFlowRemovedSubscribeReply, nil)
	case MsgBarrier:
		return writePayload(conn, &cs.out, MsgBarrierReply, nil)
	default:
		return fmt.Errorf("ofproto: unexpected message type %s (%d)", msg.Type, uint8(msg.Type))
	}
}

// flushRemoved drains flow-removed notifications queued since the
// connection's cursor and pushes them as one async MsgFlowRemoved
// frame. Records lost to ring overflow are simply skipped — the drain
// cursor advances past them (the pipeline counts them in
// LifecycleStats.RemovedDropped).
func (s *Server) flushRemoved(conn net.Conn, cs *connState) error {
	recs, next, _ := s.pipeline.FlowRemovedSince(cs.removedCursor)
	cs.removedCursor = next
	if len(recs) == 0 {
		return nil
	}
	cs.removedMsgs = cs.removedMsgs[:0]
	for i := range recs {
		cs.removedMsgs = append(cs.removedMsgs, FlowRemovedMsg{
			Table:       uint8(recs[i].Table),
			Reason:      recs[i].Reason,
			DurationSec: recs[i].DurationSec,
			Packets:     recs[i].Packets,
			Bytes:       recs[i].Bytes,
			Entry:       *recs[i].Entry,
		})
	}
	cs.out = AppendFlowRemoved(BeginFrame(cs.out), cs.removedMsgs)
	return WriteFrame(conn, MsgFlowRemoved, cs.out)
}

// applyGroupMod applies one wire group-mod against the pipeline's
// group table.
func (s *Server) applyGroupMod(gm *GroupMod) error {
	switch gm.Op {
	case GroupModAdd, GroupModModify:
		g := core.Group{ID: gm.ID, Type: gm.Type}
		for _, b := range gm.Buckets {
			g.Buckets = append(g.Buckets, core.Bucket{Actions: b})
		}
		if gm.Op == GroupModAdd {
			return s.pipeline.AddGroup(g)
		}
		return s.pipeline.ModifyGroup(g)
	case GroupModDelete:
		return s.pipeline.DeleteGroup(gm.ID)
	}
	return fmt.Errorf("ofproto: unknown group-mod op %d", gm.Op)
}

// coreCmd translates a wire flow-mod into the pipeline's command form.
func coreCmd(fm *FlowMod) core.FlowCmd {
	var op core.FlowCmdOp
	switch fm.Op {
	case FlowAdd:
		op = core.CmdAdd
	case FlowModify:
		op = core.CmdModify
	case FlowDelete:
		op = core.CmdDelete
	case FlowDeleteStrict:
		op = core.CmdDeleteStrict
	case FlowRemoveExact:
		op = core.CmdRemoveExact
	}
	return core.FlowCmd{Op: op, Table: fm.Table, CookieMask: fm.CookieMask, Entry: fm.Entry}
}

// replyOf converts a pipeline result to the wire reply. The Outputs
// slice aliases the result's interned (immutable) copy.
func replyOf(res *core.Result) PacketReply {
	reply := PacketReply{Outputs: res.Outputs}
	if res.Matched {
		reply.Flags |= ReplyMatched
	}
	if res.SentToController {
		reply.Flags |= ReplyToController
	}
	if res.Dropped {
		reply.Flags |= ReplyDropped
	}
	return reply
}
