package ofproto

import (
	"encoding/binary"
	"fmt"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

// This file carries the flow-lifecycle wire surface: cursor-paginated
// flow-stats scrapes, aggregate counters, group-table modification, and
// the asynchronous flow-removed notification stream. The codecs follow
// the packet-batch idiom — Append* writers against a caller-owned buffer
// and Decode*Into readers that reuse the reply's slices (entries drawn
// from an EntryArena), so steady-state polling allocates nothing once
// buffers have grown to the working set.

// AllTables in a stats request selects every pipeline table.
const AllTables uint8 = 0xFF

// FlowStatsRequest selects the flows a scrape returns. Table 0xFF
// (AllTables) walks every table; Cookie/CookieMask arm the cookie
// filter (zero mask disables it). Cursor is the opaque continuation
// token from the previous reply (0 starts a scrape); Max bounds the
// rows per reply (0 = switch default), so a scrape of a million-flow
// table proceeds in bounded frames without ever pausing commits.
type FlowStatsRequest struct {
	Table      uint8
	Cursor     uint32
	Max        uint16
	Cookie     uint64
	CookieMask uint64
}

// flowStatsRequestLen: [table u8 | cursor u32 | max u16 | cookie u64 | mask u64].
const flowStatsRequestLen = 1 + 4 + 2 + 8 + 8

// AppendFlowStatsRequest appends the wire form of a flow-stats request.
func AppendFlowStatsRequest(buf []byte, r *FlowStatsRequest) []byte {
	buf = append(buf, r.Table)
	buf = binary.BigEndian.AppendUint32(buf, r.Cursor)
	buf = binary.BigEndian.AppendUint16(buf, r.Max)
	buf = binary.BigEndian.AppendUint64(buf, r.Cookie)
	return binary.BigEndian.AppendUint64(buf, r.CookieMask)
}

// DecodeFlowStatsRequestInto parses a flow-stats request.
func DecodeFlowStatsRequestInto(r *FlowStatsRequest, payload []byte) error {
	if len(payload) != flowStatsRequestLen {
		return fmt.Errorf("ofproto: flow-stats request of %d bytes, want %d", len(payload), flowStatsRequestLen)
	}
	r.Table = payload[0]
	r.Cursor = binary.BigEndian.Uint32(payload[1:])
	r.Max = binary.BigEndian.Uint16(payload[5:])
	r.Cookie = binary.BigEndian.Uint64(payload[7:])
	r.CookieMask = binary.BigEndian.Uint64(payload[15:])
	return nil
}

// FlowStatsRow is one scraped flow: the merged per-flow counters, ages,
// and the full entry (match set, priority, cookie, timeouts).
type FlowStatsRow struct {
	Table   uint8
	Age     uint32 // seconds since install
	IdleAge uint32 // seconds since last matched packet
	Packets uint64
	Bytes   uint64
	Entry   openflow.FlowEntry
}

// FlowStatsReply is one page of a scrape. Next/More continue the
// cursor walk: while More is set, re-request with Cursor=Next.
type FlowStatsReply struct {
	Next  uint32
	More  bool
	Flows []FlowStatsRow
}

// flowStatsReplyHeaderLen: [next u32 | more u8 | count u16].
const flowStatsReplyHeaderLen = 4 + 1 + 2

// flowStatsRowHeaderLen: [table u8 | age u32 | idleAge u32 | pkts u64 |
// bytes u64], followed by the variable-width entry record.
const flowStatsRowHeaderLen = 1 + 4 + 4 + 8 + 8

// AppendFlowStatsReply appends the wire form of a flow-stats page to
// buf, so per-connection senders can reuse one encode buffer.
func AppendFlowStatsReply(buf []byte, r *FlowStatsReply) []byte {
	buf = binary.BigEndian.AppendUint32(buf, r.Next)
	more := byte(0)
	if r.More {
		more = 1
	}
	buf = append(buf, more)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Flows)))
	for i := range r.Flows {
		f := &r.Flows[i]
		buf = append(buf, f.Table)
		buf = binary.BigEndian.AppendUint32(buf, f.Age)
		buf = binary.BigEndian.AppendUint32(buf, f.IdleAge)
		buf = binary.BigEndian.AppendUint64(buf, f.Packets)
		buf = binary.BigEndian.AppendUint64(buf, f.Bytes)
		buf = openflow.AppendFlowEntry(buf, &f.Entry)
	}
	return buf
}

// DecodeFlowStatsReplyInto parses a flow-stats page, reusing the Flows
// slice and drawing entry match/instruction/action slices from the
// arena (the heap when ar is nil). The decoded rows alias the arena, so
// the caller must consume them before the next decode that resets it.
func DecodeFlowStatsReplyInto(r *FlowStatsReply, payload []byte, ar *openflow.EntryArena) error {
	if len(payload) < flowStatsReplyHeaderLen {
		return fmt.Errorf("ofproto: flow-stats reply of %d bytes", len(payload))
	}
	r.Next = binary.BigEndian.Uint32(payload)
	r.More = payload[4] != 0
	count := int(binary.BigEndian.Uint16(payload[5:]))
	rest := payload[flowStatsReplyHeaderLen:]
	if count > len(rest)/(flowStatsRowHeaderLen+openflow.MinFlowEntryLen) {
		r.Flows = r.Flows[:0]
		return fmt.Errorf("ofproto: flow-stats reply of %d bytes cannot hold %d rows", len(payload), count)
	}
	if cap(r.Flows) < count {
		r.Flows = make([]FlowStatsRow, count)
	}
	r.Flows = r.Flows[:count]
	if ar != nil {
		ar.Reset()
	}
	for i := 0; i < count; i++ {
		if len(rest) < flowStatsRowHeaderLen {
			r.Flows = r.Flows[:0]
			return fmt.Errorf("ofproto: flow-stats row %d truncated", i)
		}
		f := &r.Flows[i]
		f.Table = rest[0]
		f.Age = binary.BigEndian.Uint32(rest[1:])
		f.IdleAge = binary.BigEndian.Uint32(rest[5:])
		f.Packets = binary.BigEndian.Uint64(rest[9:])
		f.Bytes = binary.BigEndian.Uint64(rest[17:])
		n, err := openflow.DecodeFlowEntryInto(&f.Entry, rest[flowStatsRowHeaderLen:], ar)
		if err != nil {
			r.Flows = r.Flows[:0]
			return fmt.Errorf("ofproto: flow-stats row %d entry: %w", i, err)
		}
		rest = rest[flowStatsRowHeaderLen+n:]
	}
	if len(rest) != 0 {
		r.Flows = r.Flows[:0]
		return fmt.Errorf("ofproto: flow-stats reply has %d trailing bytes", len(rest))
	}
	return nil
}

// AggregateStatsRequest asks for summed counters over the selected
// flows — same selection semantics as FlowStatsRequest, minus paging.
type AggregateStatsRequest struct {
	Table      uint8
	Cookie     uint64
	CookieMask uint64
}

// aggregateStatsRequestLen: [table u8 | cookie u64 | mask u64].
const aggregateStatsRequestLen = 1 + 8 + 8

// AppendAggregateStatsRequest appends the wire form of the request.
func AppendAggregateStatsRequest(buf []byte, r *AggregateStatsRequest) []byte {
	buf = append(buf, r.Table)
	buf = binary.BigEndian.AppendUint64(buf, r.Cookie)
	return binary.BigEndian.AppendUint64(buf, r.CookieMask)
}

// DecodeAggregateStatsRequestInto parses an aggregate-stats request.
func DecodeAggregateStatsRequestInto(r *AggregateStatsRequest, payload []byte) error {
	if len(payload) != aggregateStatsRequestLen {
		return fmt.Errorf("ofproto: aggregate-stats request of %d bytes, want %d", len(payload), aggregateStatsRequestLen)
	}
	r.Table = payload[0]
	r.Cookie = binary.BigEndian.Uint64(payload[1:])
	r.CookieMask = binary.BigEndian.Uint64(payload[9:])
	return nil
}

// AggregateStatsReply is the summed answer.
type AggregateStatsReply struct {
	Packets uint64
	Bytes   uint64
	Flows   uint32
}

// aggregateStatsReplyLen: [pkts u64 | bytes u64 | flows u32].
const aggregateStatsReplyLen = 8 + 8 + 4

// AppendAggregateStatsReply appends the wire form of the reply.
func AppendAggregateStatsReply(buf []byte, r *AggregateStatsReply) []byte {
	buf = binary.BigEndian.AppendUint64(buf, r.Packets)
	buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
	return binary.BigEndian.AppendUint32(buf, r.Flows)
}

// DecodeAggregateStatsReplyInto parses an aggregate-stats reply.
func DecodeAggregateStatsReplyInto(r *AggregateStatsReply, payload []byte) error {
	if len(payload) != aggregateStatsReplyLen {
		return fmt.Errorf("ofproto: aggregate-stats reply of %d bytes, want %d", len(payload), aggregateStatsReplyLen)
	}
	r.Packets = binary.BigEndian.Uint64(payload)
	r.Bytes = binary.BigEndian.Uint64(payload[8:])
	r.Flows = binary.BigEndian.Uint32(payload[16:])
	return nil
}

// GroupModOp selects the group-table operation, mirroring OFPGC_*.
type GroupModOp uint8

// Group-mod operations. GroupModAdd installs a new group (erroring on a
// duplicate ID); GroupModModify replaces an existing group's type and
// buckets; GroupModDelete removes it (erroring while flows still
// reference it — ref-counted delete protection).
const (
	GroupModAdd GroupModOp = iota + 1
	GroupModModify
	GroupModDelete
)

// String names the operation.
func (op GroupModOp) String() string {
	switch op {
	case GroupModAdd:
		return "add"
	case GroupModModify:
		return "modify"
	case GroupModDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// GroupMod is one group-table modification: the operation, the group
// ID, and (for add/modify) the group type and bucket action lists.
type GroupMod struct {
	Op      GroupModOp
	ID      uint32
	Type    core.GroupType
	Buckets [][]openflow.Action
}

// groupModHeaderLen: [op u8 | id u32 | type u8 | bucket count u16].
// Each bucket is [action count u16] followed by fixed-width action
// records (openflow.ActionRecordLen).
const groupModHeaderLen = 1 + 4 + 1 + 2

// AppendGroupMod appends the wire form of a group-mod to buf.
func AppendGroupMod(buf []byte, gm *GroupMod) []byte {
	buf = append(buf, byte(gm.Op))
	buf = binary.BigEndian.AppendUint32(buf, gm.ID)
	buf = append(buf, byte(gm.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(gm.Buckets)))
	for _, b := range gm.Buckets {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
		for i := range b {
			buf = openflow.AppendAction(buf, &b[i])
		}
	}
	return buf
}

// DecodeGroupMod parses a group-mod payload.
func DecodeGroupMod(payload []byte) (*GroupMod, error) {
	if len(payload) < groupModHeaderLen {
		return nil, fmt.Errorf("ofproto: group-mod payload of %d bytes", len(payload))
	}
	gm := &GroupMod{
		Op:   GroupModOp(payload[0]),
		ID:   binary.BigEndian.Uint32(payload[1:]),
		Type: core.GroupType(payload[5]),
	}
	if gm.Op < GroupModAdd || gm.Op > GroupModDelete {
		return nil, fmt.Errorf("ofproto: unknown group-mod op %d", payload[0])
	}
	nb := int(binary.BigEndian.Uint16(payload[6:]))
	rest := payload[groupModHeaderLen:]
	// Each bucket carries at least its action count.
	if nb > len(rest)/2 {
		return nil, fmt.Errorf("ofproto: group-mod of %d bytes cannot hold %d buckets", len(payload), nb)
	}
	if nb > 0 {
		gm.Buckets = make([][]openflow.Action, nb)
	}
	for i := 0; i < nb; i++ {
		if len(rest) < 2 {
			return nil, fmt.Errorf("ofproto: group-mod bucket %d truncated", i)
		}
		na := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < na*openflow.ActionRecordLen {
			return nil, fmt.Errorf("ofproto: group-mod bucket %d wants %d actions, has %d bytes", i, na, len(rest))
		}
		if na > 0 {
			gm.Buckets[i] = make([]openflow.Action, na)
		}
		for j := 0; j < na; j++ {
			n, err := openflow.DecodeActionInto(&gm.Buckets[i][j], rest)
			if err != nil {
				return nil, fmt.Errorf("ofproto: group-mod bucket %d action %d: %w", i, j, err)
			}
			rest = rest[n:]
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ofproto: group-mod has %d trailing bytes", len(rest))
	}
	return gm, nil
}

// FlowRemovedMsg is one flow-removed notification: why the flow left
// the table, how long it lived, its final counters, and the entry.
type FlowRemovedMsg struct {
	Table       uint8
	Reason      uint8 // core.FlowRemovedIdleTimeout / FlowRemovedHardTimeout
	DurationSec uint32
	Packets     uint64
	Bytes       uint64
	Entry       openflow.FlowEntry
}

// flowRemovedRowHeaderLen: [table u8 | reason u8 | duration u32 |
// pkts u64 | bytes u64], followed by the entry record.
const flowRemovedRowHeaderLen = 1 + 1 + 4 + 8 + 8

// AppendFlowRemoved appends the wire form of a flow-removed batch:
// [count u16] then the records. Expiry sweeps batch their evictions
// into one commit, so the notification frame batches to match.
func AppendFlowRemoved(buf []byte, recs []FlowRemovedMsg) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(recs)))
	for i := range recs {
		r := &recs[i]
		buf = append(buf, r.Table, r.Reason)
		buf = binary.BigEndian.AppendUint32(buf, r.DurationSec)
		buf = binary.BigEndian.AppendUint64(buf, r.Packets)
		buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
		buf = openflow.AppendFlowEntry(buf, &r.Entry)
	}
	return buf
}

// DecodeFlowRemovedInto parses a flow-removed batch, reusing recs and
// drawing entry slices from the arena (same aliasing rules as the
// flow-stats decode).
func DecodeFlowRemovedInto(recs []FlowRemovedMsg, payload []byte, ar *openflow.EntryArena) ([]FlowRemovedMsg, error) {
	if len(payload) < 2 {
		return recs[:0], fmt.Errorf("ofproto: flow-removed payload of %d bytes", len(payload))
	}
	count := int(binary.BigEndian.Uint16(payload))
	rest := payload[2:]
	if count > len(rest)/(flowRemovedRowHeaderLen+openflow.MinFlowEntryLen) {
		return recs[:0], fmt.Errorf("ofproto: flow-removed of %d bytes cannot hold %d records", len(payload), count)
	}
	if cap(recs) < count {
		recs = make([]FlowRemovedMsg, count)
	}
	recs = recs[:count]
	if ar != nil {
		ar.Reset()
	}
	for i := 0; i < count; i++ {
		if len(rest) < flowRemovedRowHeaderLen {
			return recs[:0], fmt.Errorf("ofproto: flow-removed record %d truncated", i)
		}
		r := &recs[i]
		r.Table = rest[0]
		r.Reason = rest[1]
		r.DurationSec = binary.BigEndian.Uint32(rest[2:])
		r.Packets = binary.BigEndian.Uint64(rest[6:])
		r.Bytes = binary.BigEndian.Uint64(rest[14:])
		n, err := openflow.DecodeFlowEntryInto(&r.Entry, rest[flowRemovedRowHeaderLen:], ar)
		if err != nil {
			return recs[:0], fmt.Errorf("ofproto: flow-removed record %d entry: %w", i, err)
		}
		rest = rest[flowRemovedRowHeaderLen+n:]
	}
	if len(rest) != 0 {
		return recs[:0], fmt.Errorf("ofproto: flow-removed has %d trailing bytes", len(rest))
	}
	return recs, nil
}
