// Package ofproto implements a minimal OpenFlow-style control protocol
// over TCP, connecting a controller (cmd/ofctl) to a switch daemon
// (cmd/switchd) hosting the multiple-table lookup pipeline. It models the
// control-plane path the paper's update evaluation assumes: the controller
// generates update information, the switch interprets it and updates its
// algorithm structures and action tables.
//
// Framing: every message is [length u32 | type u8 | payload], big endian;
// length covers type and payload. Flow entries and packet headers reuse
// the binary codec of the openflow package.
//
// Each message has one encoder, AppendX, which appends its payload to a
// caller-owned buffer, and one decoder, which reads into caller-owned
// buffers where the payload is variable-length (DecodeXInto / ...Arena).
// There is one framer: a sender starts a frame with BeginFrame, appends
// the payload in place, and hands it to WriteFrame, which fills in the
// header and writes the whole frame in a single Write. A single packet
// or flow-mod travels as a batch of one.
package ofproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

// ProtocolVersion is negotiated in Hello. Version 2 added structured
// error payloads (type/code/text instead of bare text) and echo
// request/reply keepalives. Version 3 folded the memory-, cache- and
// advisor-stats pairs into the one stats report (see Stats). Version 4
// retired the single-packet and single-flow-mod pairs (3-6): both
// travel as batches of one.
const ProtocolVersion = 4

// MaxMessageLen bounds a frame to keep a malformed peer from forcing an
// arbitrary allocation.
const MaxMessageLen = 1 << 20

// MsgType identifies a message.
type MsgType uint8

// Message types.
const (
	MsgHello MsgType = iota + 1
	MsgError
	// 3-6 were the single flow-mod and packet pairs, retired into
	// batches of one; their numbers stay reserved.
	_
	_
	_
	_
	MsgStatsRequest
	MsgStatsReply
	MsgBarrier
	MsgBarrierReply
	MsgPacketBatch
	MsgPacketBatchReply
	MsgFlowModBatch
	MsgFlowModBatchReply
	// 15-18 were the memory- and cache-stats pairs, retired into
	// sections of MsgStatsReply; their numbers stay reserved.
	_
	_
	_
	_
	MsgEchoRequest
	MsgEchoReply
	MsgFlowStatsRequest
	MsgFlowStatsReply
	MsgAggregateStatsRequest
	MsgAggregateStatsReply
	MsgGroupMod
	MsgGroupModReply
	MsgFlowRemovedSubscribe
	MsgFlowRemovedSubscribeReply
	// MsgFlowRemoved is asynchronous: the switch pushes it to
	// subscribed connections ahead of its next reply frame, so clients
	// must drain it inline (like echo requests) rather than treat it as
	// the answer to a pending request.
	MsgFlowRemoved
	// 30-31 were the advisor-stats pair, retired and reserved likewise.
	_
	_
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgError:
		return "error"
	case MsgStatsRequest:
		return "stats-request"
	case MsgStatsReply:
		return "stats-reply"
	case MsgBarrier:
		return "barrier"
	case MsgBarrierReply:
		return "barrier-reply"
	case MsgPacketBatch:
		return "packet-batch"
	case MsgPacketBatchReply:
		return "packet-batch-reply"
	case MsgFlowModBatch:
		return "flow-mod-batch"
	case MsgFlowModBatchReply:
		return "flow-mod-batch-reply"
	case MsgEchoRequest:
		return "echo-request"
	case MsgEchoReply:
		return "echo-reply"
	case MsgFlowStatsRequest:
		return "flow-stats-request"
	case MsgFlowStatsReply:
		return "flow-stats-reply"
	case MsgAggregateStatsRequest:
		return "aggregate-stats-request"
	case MsgAggregateStatsReply:
		return "aggregate-stats-reply"
	case MsgGroupMod:
		return "group-mod"
	case MsgGroupModReply:
		return "group-mod-reply"
	case MsgFlowRemovedSubscribe:
		return "flow-removed-subscribe"
	case MsgFlowRemovedSubscribeReply:
		return "flow-removed-subscribe-reply"
	case MsgFlowRemoved:
		return "flow-removed"
	default:
		return "unknown"
	}
}

// FlowModOp selects the flow-mod operation, mirroring OFPFC_*.
type FlowModOp uint8

// Flow-mod operations. FlowAdd installs (replacing an entry with the same
// match set and priority); FlowDelete removes every entry the match
// subsumes (non-strict, priority ignored — an empty match sweeps the
// table); FlowModify rewrites the instructions of every subsumed entry;
// FlowDeleteStrict removes entries with exactly the same match set and
// priority. FlowRemoveExact is the legacy pre-transactional identity:
// like FlowDeleteStrict but additionally requiring the instructions to
// match, and erroring when no entry does.
const (
	FlowAdd FlowModOp = iota + 1
	FlowDelete
	FlowModify
	FlowDeleteStrict
	FlowRemoveExact
)

// String names the operation.
func (op FlowModOp) String() string {
	switch op {
	case FlowAdd:
		return "add"
	case FlowDelete:
		return "delete"
	case FlowModify:
		return "modify"
	case FlowDeleteStrict:
		return "delete-strict"
	case FlowRemoveExact:
		return "remove-exact"
	default:
		return "unknown"
	}
}

// FlowMod is one flow-table modification command. Entry carries the
// match set, priority, cookie and (for add/modify) instructions;
// CookieMask arms the cookie filter on modify/delete selection (zero
// disables it, as in OpenFlow).
type FlowMod struct {
	Op         FlowModOp
	Table      openflow.TableID
	CookieMask uint64
	Entry      openflow.FlowEntry
}

// FlowModBatchReply reports what a committed flow-mod batch did, echoing
// the switch-side transaction result.
type FlowModBatchReply struct {
	Commands uint32
	Added    uint32
	Replaced uint32
	Modified uint32
	Deleted  uint32
}

// PacketReplyFlags encode the pipeline result.
const (
	ReplyMatched uint8 = 1 << iota
	ReplyToController
	ReplyDropped
)

// PacketReply is the switch's answer to an injected packet.
type PacketReply struct {
	Flags   uint8
	Outputs []uint32
}

// Message is one decoded frame.
type Message struct {
	Type    MsgType
	Payload []byte
}

// frameHeaderLen is the [length u32 | type u8] frame prefix.
const frameHeaderLen = 5

// WriteFrame frames and writes a message whose payload was appended in
// place after a frameHeaderLen-byte prefix (see BeginFrame). It is the
// only place a frame header is encoded, and the frame goes out in a
// single Write — one syscall, no per-message allocation.
func WriteFrame(w io.Writer, t MsgType, frame []byte) error {
	if len(frame) < frameHeaderLen || len(frame)-4 > MaxMessageLen {
		return fmt.Errorf("ofproto: frame of %d bytes out of range", len(frame))
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	frame[4] = byte(t)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("ofproto: writing %s frame: %w", t, err)
	}
	return nil
}

// BeginFrame resets buf to a frame under construction: a placeholder
// header to be filled by WriteFrame, ready for payload appends. The
// buffer's capacity is reused across messages.
func BeginFrame(buf []byte) []byte {
	buf = buf[:0]
	return append(buf, 0, 0, 0, 0, 0)
}

// writePayload frames a ready-made payload (none, an echo's, a hello's)
// in *out and writes it; *out keeps its capacity for the next message.
func writePayload(w io.Writer, out *[]byte, t MsgType, payload []byte) error {
	*out = append(BeginFrame(*out), payload...)
	return WriteFrame(w, t, *out)
}

// ReadMessage reads one framed message into a fresh buffer.
func ReadMessage(r io.Reader) (Message, error) {
	msg, _, err := ReadMessageBuf(r, nil)
	return msg, err
}

// ReadMessageBuf reads one framed message, reusing buf when it is large
// enough. It returns the (possibly grown) buffer for the next call; the
// returned Message's Payload aliases it, so the caller must consume the
// message before reading the next one.
func ReadMessageBuf(r io.Reader, buf []byte) (Message, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, buf, fmt.Errorf("ofproto: reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > MaxMessageLen {
		return Message{}, buf, fmt.Errorf("ofproto: frame length %d out of range", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, buf, fmt.Errorf("ofproto: reading frame body: %w", err)
	}
	return Message{Type: MsgType(body[0]), Payload: body[1:]}, buf, nil
}

// DecodeHello validates a hello payload.
func DecodeHello(payload []byte) error {
	if len(payload) != 1 {
		return fmt.Errorf("ofproto: hello payload of %d bytes", len(payload))
	}
	if payload[0] != ProtocolVersion {
		return fmt.Errorf("ofproto: peer version %d, want %d", payload[0], ProtocolVersion)
	}
	return nil
}

// flowModHeaderLen is the [op u8 | table u8 | cookie-mask u64] prefix of
// one flow-mod record.
const flowModHeaderLen = 1 + 1 + 8

// appendFlowMod appends the wire form of one flow-mod record to buf.
func appendFlowMod(buf []byte, fm *FlowMod) []byte {
	buf = append(buf, byte(fm.Op), byte(fm.Table))
	buf = binary.BigEndian.AppendUint64(buf, fm.CookieMask)
	return openflow.AppendFlowEntry(buf, &fm.Entry)
}

// decodeFlowModInto decodes one flow-mod record into fm, returning the
// bytes consumed. Entry slices are drawn from the arena when one is given.
func decodeFlowModInto(fm *FlowMod, buf []byte, ar *openflow.EntryArena) (int, error) {
	if len(buf) < flowModHeaderLen {
		return 0, fmt.Errorf("ofproto: flow-mod record of %d bytes", len(buf))
	}
	fm.Op = FlowModOp(buf[0])
	fm.Table = openflow.TableID(buf[1])
	fm.CookieMask = binary.BigEndian.Uint64(buf[2:])
	if fm.Op < FlowAdd || fm.Op > FlowRemoveExact {
		return 0, fmt.Errorf("ofproto: unknown flow-mod op %d", buf[0])
	}
	n, err := openflow.DecodeFlowEntryInto(&fm.Entry, buf[flowModHeaderLen:], ar)
	if err != nil {
		return 0, fmt.Errorf("ofproto: flow-mod entry: %w", err)
	}
	return flowModHeaderLen + n, nil
}

// AppendFlowModBatch appends the wire form of a flow-mod batch to buf, so
// per-connection senders can reuse one encode buffer.
func AppendFlowModBatch(buf []byte, fms []FlowMod) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(fms)))
	for i := range fms {
		buf = appendFlowMod(buf, &fms[i])
	}
	return buf
}

// DecodeFlowModBatchArena parses a batch of flow-mods, reusing the fms
// slice and drawing the entries' match/instruction/action slices from the
// arena: once both have grown to a connection's working set, the
// steady-state decode path allocates nothing. The decoded commands alias
// the arena (and the payload's lifetime rules of ReadMessageBuf apply),
// so the caller must consume them before the next message. A nil arena
// draws the entries' slices from the heap.
func DecodeFlowModBatchArena(payload []byte, fms []FlowMod, ar *openflow.EntryArena) ([]FlowMod, error) {
	if len(payload) < 2 {
		return fms, fmt.Errorf("ofproto: flow-mod-batch payload of %d bytes", len(payload))
	}
	count := int(binary.BigEndian.Uint16(payload))
	rest := payload[2:]
	// The count is the peer's word: check it against the payload before
	// it sizes a buffer the connection keeps.
	if count > len(rest)/(flowModHeaderLen+openflow.MinFlowEntryLen) {
		return fms[:0], fmt.Errorf("ofproto: flow-mod-batch of %d bytes cannot hold %d commands", len(payload), count)
	}
	if cap(fms) < count {
		fms = make([]FlowMod, count)
	}
	fms = fms[:count]
	if ar != nil {
		ar.Reset()
	}
	for i := 0; i < count; i++ {
		n, err := decodeFlowModInto(&fms[i], rest, ar)
		if err != nil {
			return fms[:0], fmt.Errorf("ofproto: flow-mod-batch record %d: %w", i, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fms[:0], fmt.Errorf("ofproto: flow-mod-batch has %d trailing bytes", len(rest))
	}
	return fms, nil
}

// AppendFlowModBatchReply appends the wire form of a batch reply to buf.
func AppendFlowModBatchReply(buf []byte, r *FlowModBatchReply) []byte {
	buf = binary.BigEndian.AppendUint32(buf, r.Commands)
	buf = binary.BigEndian.AppendUint32(buf, r.Added)
	buf = binary.BigEndian.AppendUint32(buf, r.Replaced)
	buf = binary.BigEndian.AppendUint32(buf, r.Modified)
	return binary.BigEndian.AppendUint32(buf, r.Deleted)
}

// DecodeFlowModBatchReply parses a batch reply.
func DecodeFlowModBatchReply(payload []byte) (*FlowModBatchReply, error) {
	if len(payload) != 20 {
		return nil, fmt.Errorf("ofproto: flow-mod-batch-reply payload of %d bytes", len(payload))
	}
	return &FlowModBatchReply{
		Commands: binary.BigEndian.Uint32(payload),
		Added:    binary.BigEndian.Uint32(payload[4:]),
		Replaced: binary.BigEndian.Uint32(payload[8:]),
		Modified: binary.BigEndian.Uint32(payload[12:]),
		Deleted:  binary.BigEndian.Uint32(payload[16:]),
	}, nil
}

// AppendPacketBatch appends the wire form of a packet-header batch to
// buf, so per-connection senders can reuse one encode buffer.
func AppendPacketBatch(buf []byte, hs []*openflow.Header) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(hs)))
	for _, h := range hs {
		buf = openflow.AppendHeader(buf, h)
	}
	return buf
}

// DecodePacketBatchArena parses a batch of injected packet headers,
// decoding into a reused header arena: hs and arena keep their capacity
// across calls, so a connection's steady-state batch path allocates only
// when a larger batch than any before it arrives. The returned pointer
// slice aliases the returned arena.
func DecodePacketBatchArena(payload []byte, hs []*openflow.Header, arena []openflow.Header) ([]*openflow.Header, []openflow.Header, error) {
	if len(payload) < 2 {
		return nil, arena, fmt.Errorf("ofproto: packet-batch payload of %d bytes", len(payload))
	}
	count := int(binary.BigEndian.Uint16(payload))
	rest := payload[2:]
	// Headers are fixed-width, so the payload length must match the
	// count exactly; checking first keeps a lying count from sizing the
	// arena the connection keeps.
	if len(rest) != count*openflow.HeaderLen {
		return nil, arena, fmt.Errorf("ofproto: packet-batch of %d bytes does not hold %d headers", len(payload), count)
	}
	if cap(arena) < count {
		arena = make([]openflow.Header, count)
	}
	arena = arena[:count]
	hs = hs[:0]
	for i := 0; i < count; i++ {
		n, err := openflow.DecodeHeaderInto(&arena[i], rest)
		if err != nil {
			return nil, arena, fmt.Errorf("ofproto: packet-batch header %d: %w", i, err)
		}
		hs = append(hs, &arena[i])
		rest = rest[n:]
	}
	return hs, arena, nil
}

// AppendPacketBatchReply appends the wire form of the per-packet
// pipeline results to buf.
func AppendPacketBatchReply(buf []byte, rs []PacketReply) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(rs)))
	for _, r := range rs {
		buf = append(buf, r.Flags)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Outputs)))
		for _, p := range r.Outputs {
			buf = binary.BigEndian.AppendUint32(buf, p)
		}
	}
	return buf
}

// DecodePacketBatchReply parses the per-packet pipeline results into
// fresh buffers.
func DecodePacketBatchReply(payload []byte) ([]PacketReply, error) {
	rs, _, err := DecodePacketBatchReplyInto(payload, nil, nil)
	return rs, err
}

// DecodePacketBatchReplyInto parses the per-packet pipeline results into
// caller-owned buffers: rs and ports keep their capacity across calls and
// every reply's Outputs is a window of the returned ports arena, so a
// steady-state decode allocates nothing. The replies are valid until the
// buffers are passed in again.
func DecodePacketBatchReplyInto(payload []byte, rs []PacketReply, ports []uint32) ([]PacketReply, []uint32, error) {
	if len(payload) < 2 {
		return nil, ports, fmt.Errorf("ofproto: packet-batch-reply payload of %d bytes", len(payload))
	}
	count := int(binary.BigEndian.Uint16(payload))
	rest := payload[2:]
	// A result is 3 bytes plus 4 per port, so the payload length bounds both
	// buffers: sized once here, the arena never moves under the windows.
	if len(rest) < 3*count {
		return nil, ports, fmt.Errorf("ofproto: packet-batch-reply of %d bytes cannot hold %d results", len(payload), count)
	}
	total := (len(rest) - 3*count) / 4
	if cap(rs) < count {
		rs = make([]PacketReply, 0, count)
	}
	if cap(ports) < total {
		ports = make([]uint32, 0, total)
	}
	rs, ports = rs[:0], ports[:0]
	for i := 0; i < count; i++ {
		if len(rest) < 3 {
			return nil, ports, fmt.Errorf("ofproto: packet-batch-reply truncated at result %d", i)
		}
		r := PacketReply{Flags: rest[0]}
		n := int(binary.BigEndian.Uint16(rest[1:]))
		rest = rest[3:]
		if len(rest) < 4*n {
			return nil, ports, fmt.Errorf("ofproto: packet-batch-reply result %d wants %d ports, has %d bytes", i, n, len(rest))
		}
		if n > 0 {
			start := len(ports)
			for j := 0; j < n; j++ {
				ports = append(ports, binary.BigEndian.Uint32(rest[4*j:]))
			}
			r.Outputs = ports[start:len(ports):len(ports)]
		}
		rest = rest[4*n:]
		rs = append(rs, r)
	}
	if len(rest) != 0 {
		return nil, ports, fmt.Errorf("ofproto: packet-batch-reply has %d trailing bytes", len(rest))
	}
	return rs, ports, nil
}

// OpenFlow-style error types and codes carried by MsgError payloads.
// The numbering follows OpenFlow 1.3 (OFPET_* / OFPFMFC_*) so the
// values read naturally next to a real switch's.
const (
	// ErrTypeBadRequest covers malformed or unexpected messages.
	ErrTypeBadRequest uint16 = 1
	// ErrTypeFlowModFailed covers flow-mod commands the switch could
	// not apply.
	ErrTypeFlowModFailed uint16 = 5

	// ErrCodeUnspecified is the catch-all code under any error type.
	ErrCodeUnspecified uint16 = 0
	// ErrCodeTableFull (under ErrTypeFlowModFailed) reports a flow-mod
	// rejected by memory admission control: committing it would have
	// grown a table or the process past its configured budget
	// (OFPFMFC_TABLE_FULL).
	ErrCodeTableFull uint16 = 1
)

// SwitchError is a structured error reported by the switch: an
// OpenFlow-style type/code pair plus the human-readable text. It
// travels as the MsgError payload [type u16 | code u16 | text] and
// surfaces on the client as the returned error, so callers can branch
// on the machine-readable part (errors.As / IsTableFull) while logs
// keep the text.
type SwitchError struct {
	Type uint16
	Code uint16
	Text string
}

// Error formats the switch error.
func (e *SwitchError) Error() string {
	return fmt.Sprintf("ofproto: switch error (type %d, code %d): %s", e.Type, e.Code, e.Text)
}

// IsTableFull reports whether the error is a budget rejection.
func (e *SwitchError) IsTableFull() bool {
	return e.Type == ErrTypeFlowModFailed && e.Code == ErrCodeTableFull
}

// IsTableFull reports whether err (anywhere in its chain) is a switch
// TABLE_FULL rejection — the signal a controller backs off on instead
// of retrying.
func IsTableFull(err error) bool {
	var se *SwitchError
	return errors.As(err, &se) && se.IsTableFull()
}

// errClass maps a switch-side error to its wire type/code. Budget
// rejections become TABLE_FULL; everything else is a bad request.
func errClass(err error) (uint16, uint16) {
	var be *core.BudgetError
	if errors.As(err, &be) {
		return ErrTypeFlowModFailed, ErrCodeTableFull
	}
	var se *SwitchError
	if errors.As(err, &se) {
		return se.Type, se.Code
	}
	return ErrTypeBadRequest, ErrCodeUnspecified
}

// AppendError appends the wire form of an error message to buf:
// [type u16 | code u16 | text]. A *SwitchError keeps its own text, so
// relaying a decoded error re-encodes it unchanged.
func AppendError(buf []byte, err error) []byte {
	t, c := errClass(err)
	buf = binary.BigEndian.AppendUint16(buf, t)
	buf = binary.BigEndian.AppendUint16(buf, c)
	if se, ok := err.(*SwitchError); ok {
		return append(buf, se.Text...)
	}
	return append(buf, err.Error()...)
}

// DecodeError parses a MsgError payload. Payloads too short to carry
// the type/code prefix (from a pre-v2 peer) decode as an unclassified
// bad request carrying the raw text.
func DecodeError(payload []byte) *SwitchError {
	if len(payload) < 4 {
		return &SwitchError{Type: ErrTypeBadRequest, Code: ErrCodeUnspecified, Text: string(payload)}
	}
	return &SwitchError{
		Type: binary.BigEndian.Uint16(payload),
		Code: binary.BigEndian.Uint16(payload[2:]),
		Text: string(payload[4:]),
	}
}
