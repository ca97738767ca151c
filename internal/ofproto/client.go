package ofproto

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"time"

	"ofmtl/internal/openflow"
)

// Client is a controller-side connection to a switch daemon. A Client
// serialises its requests over one TCP connection and reuses its encode
// and read buffers across calls; it is not safe for concurrent use by
// multiple goroutines (open one Client per goroutine, as the server
// classifies connections in parallel).
type Client struct {
	conn    net.Conn
	out     []byte // outgoing frame under construction
	readBuf []byte // incoming frame buffer

	// OnFlowRemoved, when set, receives each flow-removed notification
	// the switch pushes after SubscribeFlowRemoved. The records are
	// delivered from inside readReply — i.e. during some other request's
	// round trip on this connection — and alias the read buffer, so the
	// callback must consume them before returning. Nil drops them.
	OnFlowRemoved func([]FlowRemovedMsg)

	removed      []FlowRemovedMsg
	removedArena openflow.EntryArena

	replies []PacketReply // SendPackets' reply buffer
	ports   []uint32      // and the arena its Outputs point into
}

// DialOptions tunes a client connection. The zero value means no
// timeouts anywhere — byte-compatible with the pre-hardening behaviour.
type DialOptions struct {
	// DialTimeout bounds the TCP connect plus the hello exchange.
	// 0 means no limit.
	DialTimeout time.Duration
	// ReadTimeout bounds each read while awaiting a reply; a switch
	// that stops responding surfaces as a timeout error instead of a
	// hang. 0 means no limit.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write of a request. 0 means no limit.
	WriteTimeout time.Duration
}

// Dial connects to a switch daemon and completes the hello exchange.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, DialOptions{})
}

// DialContext connects to a switch daemon with explicit timeouts,
// completing the hello exchange before returning. Cancelling ctx aborts
// the connection attempt.
func DialContext(ctx context.Context, addr string, opts DialOptions) (*Client, error) {
	d := net.Dialer{Timeout: opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ofproto: dialing %s: %w", addr, err)
	}
	tc := &timeoutConn{Conn: conn, readTimeout: opts.ReadTimeout, writeTimeout: opts.WriteTimeout}
	c := &Client{conn: tc}
	if opts.DialTimeout > 0 {
		// Bound the hello wait too, so a dead switch that accepted the
		// TCP connection cannot hang the dial.
		_ = conn.SetReadDeadline(time.Now().Add(opts.DialTimeout))
	}
	msg, err := ReadMessage(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("ofproto: awaiting hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if msg.Type != MsgHello {
		_ = conn.Close()
		return nil, fmt.Errorf("ofproto: expected hello, got %s", msg.Type)
	}
	if err := DecodeHello(msg.Payload); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// readReply reads the next reply frame, transparently answering any
// unsolicited echo request the server's keepalive interleaves, and
// surfacing switch errors as *SwitchError.
func (c *Client) readReply() (Message, error) {
	for {
		msg, buf, err := ReadMessageBuf(c.conn, c.readBuf)
		c.readBuf = buf
		if err != nil {
			return Message{}, err
		}
		if msg.Type == MsgEchoRequest {
			// The request is already on the wire, so its frame buffer is
			// free for the answer.
			if err := writePayload(c.conn, &c.out, MsgEchoReply, msg.Payload); err != nil {
				return Message{}, err
			}
			continue
		}
		if msg.Type == MsgFlowRemoved {
			// Async expiry notifications interleave ahead of replies on a
			// subscribed connection; drain them inline like echo probes.
			recs, err := DecodeFlowRemovedInto(c.removed, msg.Payload, &c.removedArena)
			c.removed = recs
			if err != nil {
				return Message{}, err
			}
			if c.OnFlowRemoved != nil && len(recs) > 0 {
				c.OnFlowRemoved(recs)
			}
			continue
		}
		if msg.Type == MsgError {
			return Message{}, DecodeError(msg.Payload)
		}
		return msg, nil
	}
}

// roundTrip sends the request frame built in c.out (BeginFrame, then
// the payload's AppendX) as a t message and reads the reply, which must
// be a want message. The reply aliases the read buffer.
func (c *Client) roundTrip(t, want MsgType) (Message, error) {
	if err := WriteFrame(c.conn, t, c.out); err != nil {
		return Message{}, err
	}
	msg, err := c.readReply()
	if err != nil {
		return Message{}, err
	}
	if msg.Type != want {
		return Message{}, fmt.Errorf("ofproto: expected %s, got %s", want, msg.Type)
	}
	return msg, nil
}

// Echo round-trips a keepalive probe, verifying the switch is alive and
// processing messages.
func (c *Client) Echo() error {
	c.out = BeginFrame(c.out)
	_, err := c.roundTrip(MsgEchoRequest, MsgEchoReply)
	return err
}

// AddFlow installs a flow entry, replacing any installed entry with the
// same match set and priority. It commits a one-command batch.
func (c *Client) AddFlow(table openflow.TableID, e *openflow.FlowEntry) error {
	_, err := c.SendFlowMods([]FlowMod{{Op: FlowAdd, Table: table, Entry: *e}})
	return err
}

// DeleteFlow removes the flow entry with the same matches, priority and
// instructions (the FlowRemoveExact op); deleting a missing entry is an
// error. It commits a one-command batch. For OpenFlow non-strict /
// strict deletion semantics send FlowDelete / FlowDeleteStrict commands
// through SendFlowMods.
func (c *Client) DeleteFlow(table openflow.TableID, e *openflow.FlowEntry) error {
	_, err := c.SendFlowMods([]FlowMod{{Op: FlowRemoveExact, Table: table, Entry: *e}})
	return err
}

// SendFlowMods submits a batch of flow-mod commands in one round trip.
// The switch applies the whole batch as one transaction: every command
// applies atomically (a failing command rejects and rolls back the
// batch), one lookup snapshot is published, and the microflow cache is
// invalidated once. The encode and read buffers are reused across calls,
// so steady-state batch submission does not re-allocate the wire frames.
func (c *Client) SendFlowMods(fms []FlowMod) (*FlowModBatchReply, error) {
	c.out = AppendFlowModBatch(BeginFrame(c.out), fms)
	msg, err := c.roundTrip(MsgFlowModBatch, MsgFlowModBatchReply)
	if err != nil {
		return nil, err
	}
	return DecodeFlowModBatchReply(msg.Payload)
}

// SendPacket injects one packet header as a batch of one and returns
// the pipeline result. Unlike SendPackets' replies, the result is the
// caller's: its Outputs is a copy.
func (c *Client) SendPacket(h *openflow.Header) (*PacketReply, error) {
	rs, err := c.SendPackets([]*openflow.Header{h})
	if err != nil {
		return nil, err
	}
	// The count comes off the network: a reply for a batch of one must
	// carry exactly one result.
	if len(rs) != 1 {
		return nil, fmt.Errorf("ofproto: %s carries %d results for one packet", MsgPacketBatchReply, len(rs))
	}
	return &PacketReply{Flags: rs[0].Flags, Outputs: slices.Clone(rs[0].Outputs)}, nil
}

// SendPackets injects a batch of packet headers in one round trip; the
// switch classifies them in parallel through the pipeline's batch path
// and returns one reply per header, in order. The encode, read and reply
// buffers are reused across calls, so steady-state batch injection does
// not allocate: the replies are valid until the next call on this Client.
func (c *Client) SendPackets(hs []*openflow.Header) ([]PacketReply, error) {
	c.out = AppendPacketBatch(BeginFrame(c.out), hs)
	msg, err := c.roundTrip(MsgPacketBatch, MsgPacketBatchReply)
	if err != nil {
		return nil, err
	}
	rs, ports, err := DecodePacketBatchReplyInto(msg.Payload, c.replies, c.ports)
	c.ports = ports
	if err != nil {
		return nil, err
	}
	c.replies = rs
	return rs, nil
}

// Stats fetches the switch report: every section CollectStats
// assembles, decoded fresh per call.
func (c *Client) Stats() (*Stats, error) {
	c.out = BeginFrame(c.out)
	msg, err := c.roundTrip(MsgStatsRequest, MsgStatsReply)
	if err != nil {
		return nil, err
	}
	return DecodeStats(msg.Payload)
}

// FlowStats fetches one page of per-flow statistics. Set req.Cursor to
// the previous reply's Next while More is set to continue a scrape; the
// switch serves each page lock-free, so even a scrape of a million
// flows never pauses commits. The reply is decoded fresh per call.
func (c *Client) FlowStats(req *FlowStatsRequest) (*FlowStatsReply, error) {
	c.out = AppendFlowStatsRequest(BeginFrame(c.out), req)
	msg, err := c.roundTrip(MsgFlowStatsRequest, MsgFlowStatsReply)
	if err != nil {
		return nil, err
	}
	reply := &FlowStatsReply{}
	if err := DecodeFlowStatsReplyInto(reply, msg.Payload, nil); err != nil {
		return nil, err
	}
	return reply, nil
}

// VisitFlowStats walks every page of a scrape, calling fn with each
// row. It stops early when fn returns false.
func (c *Client) VisitFlowStats(req FlowStatsRequest, fn func(*FlowStatsRow) bool) error {
	for {
		reply, err := c.FlowStats(&req)
		if err != nil {
			return err
		}
		for i := range reply.Flows {
			if !fn(&reply.Flows[i]) {
				return nil
			}
		}
		if !reply.More {
			return nil
		}
		req.Cursor = reply.Next
	}
}

// AggregateStats fetches summed packet/byte/flow counters over the
// flows the request selects.
func (c *Client) AggregateStats(req *AggregateStatsRequest) (*AggregateStatsReply, error) {
	c.out = AppendAggregateStatsRequest(BeginFrame(c.out), req)
	msg, err := c.roundTrip(MsgAggregateStatsRequest, MsgAggregateStatsReply)
	if err != nil {
		return nil, err
	}
	reply := &AggregateStatsReply{}
	if err := DecodeAggregateStatsReplyInto(reply, msg.Payload); err != nil {
		return nil, err
	}
	return reply, nil
}

// SendGroupMod applies one group-table modification.
func (c *Client) SendGroupMod(gm *GroupMod) error {
	c.out = AppendGroupMod(BeginFrame(c.out), gm)
	_, err := c.roundTrip(MsgGroupMod, MsgGroupModReply)
	return err
}

// SubscribeFlowRemoved turns flow-removed delivery on or off for this
// connection. While subscribed, the switch pushes expiry notifications
// ahead of its replies; they surface through the OnFlowRemoved
// callback. Only expiries after the subscription are delivered.
func (c *Client) SubscribeFlowRemoved(on bool) error {
	flag := byte(0)
	if on {
		flag = 1
	}
	c.out = append(BeginFrame(c.out), flag)
	_, err := c.roundTrip(MsgFlowRemovedSubscribe, MsgFlowRemovedSubscribeReply)
	return err
}

// Barrier completes when all previously sent messages are processed.
func (c *Client) Barrier() error {
	c.out = BeginFrame(c.out)
	_, err := c.roundTrip(MsgBarrier, MsgBarrierReply)
	return err
}

// ReconnClient is a self-healing controller connection: when a request
// fails on a transport error it closes the connection, redials with
// jittered exponential backoff and replays the request. Semantic
// switch errors (*SwitchError — a budget rejection, a bad flow-mod) are
// returned immediately, never retried: the switch answered, the answer
// was no.
//
// Replay gives at-least-once semantics: a request whose reply was lost
// may have been applied before the connection died, and runs again
// after the reconnect. A second application is never free:
//
//   - a replayed FlowAdd of an identical entry converges the rule set,
//     but it replaces the rule again: the rule's counters and age
//     restart, and it moves behind equal-priority rules installed since
//     (the earliest install wins ties);
//   - a replayed FlowDelete or FlowDeleteStrict converges (deleting an
//     absent flow is a no-op); a replayed FlowRemoveExact is rejected,
//     its entry being gone;
//   - a replayed packet is classified and counted again.
//
// A request lost before the switch read it runs once, after the
// reconnect.
//
// Like Client it is single-goroutine; open one per worker.
type ReconnClient struct {
	addr string
	opts DialOptions

	// BackoffMin/BackoffMax bound the reconnect backoff; attempt n
	// waits min(BackoffMax, BackoffMin<<n), jittered to 50-100%.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxAttempts bounds tries per request (dial and replay each count;
	// the request fails with the last transport error once exhausted).
	MaxAttempts int
	// Logf, when set, receives reconnect events.
	Logf func(format string, args ...any)

	c      *Client
	dialed bool
	// Redials counts reconnects performed over the client's lifetime
	// (dials after the first successful one).
	Redials uint64
}

// NewReconnClient builds a reconnecting client for addr. It does not
// dial until the first request.
func NewReconnClient(addr string, opts DialOptions) *ReconnClient {
	return &ReconnClient{
		addr:        addr,
		opts:        opts,
		BackoffMin:  20 * time.Millisecond,
		BackoffMax:  2 * time.Second,
		MaxAttempts: 8,
	}
}

// Close releases the underlying connection, if any.
func (r *ReconnClient) Close() error {
	if r.c == nil {
		return nil
	}
	err := r.c.Close()
	r.c = nil
	return err
}

// backoff sleeps the jittered exponential delay for the given attempt,
// or returns early with ctx's error.
func (r *ReconnClient) backoff(ctx context.Context, attempt int) error {
	d := r.BackoffMin << attempt
	if d <= 0 || d > r.BackoffMax {
		d = r.BackoffMax
	}
	// Jitter to 50-100% so a fleet of reconnecting workers does not
	// stampede the switch in lockstep.
	d = d/2 + rand.N(d/2+1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs op against a live connection, redialling and replaying on
// transport errors.
func (r *ReconnClient) do(ctx context.Context, op func(*Client) error) error {
	max := r.MaxAttempts
	if max <= 0 {
		max = 8
	}
	var err error
	for attempt := 0; attempt < max; attempt++ {
		if attempt > 0 {
			if berr := r.backoff(ctx, attempt-1); berr != nil {
				return berr
			}
		}
		if r.c == nil {
			c, derr := DialContext(ctx, r.addr, r.opts)
			if derr != nil {
				err = derr
				if r.Logf != nil {
					r.Logf("ofproto: reconnect dial %s: %v", r.addr, derr)
				}
				continue
			}
			if r.dialed {
				r.Redials++
			}
			r.dialed = true
			r.c = c
		}
		err = op(r.c)
		if err == nil {
			return nil
		}
		var se *SwitchError
		if errors.As(err, &se) {
			// The switch processed the request and refused it; the
			// connection is healthy and a retry would get the same no.
			return err
		}
		if r.Logf != nil {
			r.Logf("ofproto: connection to %s failed, reconnecting: %v", r.addr, err)
		}
		_ = r.c.Close()
		r.c = nil
	}
	return err
}

// SendFlowMods submits a flow-mod batch, replaying it across reconnects
// (see the type comment for what a replay applies twice).
func (r *ReconnClient) SendFlowMods(ctx context.Context, fms []FlowMod) (*FlowModBatchReply, error) {
	var reply *FlowModBatchReply
	err := r.do(ctx, func(c *Client) error {
		var err error
		reply, err = c.SendFlowMods(fms)
		return err
	})
	return reply, err
}

// SendPacket injects a packet header, reconnecting as needed. A replay
// after a lost reply classifies the packet again, and counts it again.
func (r *ReconnClient) SendPacket(ctx context.Context, h *openflow.Header) (*PacketReply, error) {
	var reply *PacketReply
	err := r.do(ctx, func(c *Client) error {
		var err error
		reply, err = c.SendPacket(h)
		return err
	})
	return reply, err
}

// Stats polls the status report, reconnecting as needed.
func (r *ReconnClient) Stats(ctx context.Context) (*Stats, error) {
	var reply *Stats
	err := r.do(ctx, func(c *Client) error {
		var err error
		reply, err = c.Stats()
		return err
	})
	return reply, err
}

// Barrier round-trips a barrier, reconnecting as needed.
func (r *ReconnClient) Barrier(ctx context.Context) error {
	return r.do(ctx, func(c *Client) error { return c.Barrier() })
}
