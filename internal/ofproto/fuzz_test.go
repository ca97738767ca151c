package ofproto

import (
	"bytes"
	"reflect"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

// wireCodec is one message's decoder run on bytes the peer wrote, paired
// with its encoder: it decodes payload into fresh buffers and re-encodes
// what it decoded. Decode errors are returned; a decoded value that does
// not re-encode fails t.
type wireCodec func(t *testing.T, payload []byte) (v any, reencoded []byte, err error)

// serverCodecs are the decoders the switch runs on controller bytes.
var serverCodecs = map[MsgType]wireCodec{
	MsgFlowModBatch: func(_ *testing.T, p []byte) (any, []byte, error) {
		var ar openflow.EntryArena
		fms, err := DecodeFlowModBatchArena(p, nil, &ar)
		if err != nil {
			return nil, nil, err
		}
		return fms, AppendFlowModBatch(nil, fms), nil
	},
	MsgPacketBatch: func(_ *testing.T, p []byte) (any, []byte, error) {
		hs, _, err := DecodePacketBatchArena(p, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		return hs, AppendPacketBatch(nil, hs), nil
	},
	MsgGroupMod: func(_ *testing.T, p []byte) (any, []byte, error) {
		gm, err := DecodeGroupMod(p)
		if err != nil {
			return nil, nil, err
		}
		return gm, AppendGroupMod(nil, gm), nil
	},
	MsgFlowStatsRequest: func(_ *testing.T, p []byte) (any, []byte, error) {
		var r FlowStatsRequest
		if err := DecodeFlowStatsRequestInto(&r, p); err != nil {
			return nil, nil, err
		}
		return r, AppendFlowStatsRequest(nil, &r), nil
	},
	MsgAggregateStatsRequest: func(_ *testing.T, p []byte) (any, []byte, error) {
		var r AggregateStatsRequest
		if err := DecodeAggregateStatsRequestInto(&r, p); err != nil {
			return nil, nil, err
		}
		return r, AppendAggregateStatsRequest(nil, &r), nil
	},
}

// clientCodecs are the decoders the controller runs on switch bytes.
var clientCodecs = map[MsgType]wireCodec{
	MsgPacketBatchReply: func(_ *testing.T, p []byte) (any, []byte, error) {
		rs, _, err := DecodePacketBatchReplyInto(p, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		return rs, AppendPacketBatchReply(nil, rs), nil
	},
	MsgFlowModBatchReply: func(_ *testing.T, p []byte) (any, []byte, error) {
		r, err := DecodeFlowModBatchReply(p)
		if err != nil {
			return nil, nil, err
		}
		return r, AppendFlowModBatchReply(nil, r), nil
	},
	MsgFlowStatsReply: func(_ *testing.T, p []byte) (any, []byte, error) {
		var r FlowStatsReply
		var ar openflow.EntryArena
		if err := DecodeFlowStatsReplyInto(&r, p, &ar); err != nil {
			return nil, nil, err
		}
		return r, AppendFlowStatsReply(nil, &r), nil
	},
	MsgAggregateStatsReply: func(_ *testing.T, p []byte) (any, []byte, error) {
		var r AggregateStatsReply
		if err := DecodeAggregateStatsReplyInto(&r, p); err != nil {
			return nil, nil, err
		}
		return r, AppendAggregateStatsReply(nil, &r), nil
	},
	MsgFlowRemoved: func(_ *testing.T, p []byte) (any, []byte, error) {
		var ar openflow.EntryArena
		recs, err := DecodeFlowRemovedInto(nil, p, &ar)
		if err != nil {
			return nil, nil, err
		}
		return recs, AppendFlowRemoved(nil, recs), nil
	},
	MsgError: func(_ *testing.T, p []byte) (any, []byte, error) {
		se := DecodeError(p)
		return se, AppendError(nil, se), nil
	},
	MsgStatsReply: func(t *testing.T, p []byte) (any, []byte, error) {
		s, err := DecodeStats(p)
		if err != nil {
			return nil, nil, err
		}
		enc, err := AppendStats(nil, s)
		if err != nil {
			t.Fatalf("re-encode of a decoded report failed: %v", err)
		}
		return s, enc, nil
	},
}

// checkDecode runs codec on payload: decoding must never panic, and
// whatever decodes must come back from decode → append → decode as the
// same value, re-encoding to the same bytes.
func checkDecode(t *testing.T, typ MsgType, codec wireCodec, payload []byte) {
	v, buf, err := codec(t, payload)
	if err != nil {
		return
	}
	v2, buf2, err := codec(t, buf)
	if err != nil {
		t.Fatalf("%s: re-decode failed: %v", typ, err)
	}
	if !reflect.DeepEqual(v, v2) || !bytes.Equal(buf, buf2) {
		t.Fatalf("%s: decode → append → decode is not a fixed point:\n %+v\n %+v", typ, v, v2)
	}
}

// seeds are one message type's seed payloads.
type seeds struct {
	typ      MsgType
	payloads [][]byte
}

// fuzzFrames fuzzes frame bodies [type u8 | payload]: the type byte picks
// which of codecs decodes the payload; other types are skipped.
func fuzzFrames(f *testing.F, codecs map[MsgType]wireCodec, corpus []seeds) {
	for _, s := range corpus {
		for _, p := range s.payloads {
			f.Add(append([]byte{byte(s.typ)}, p...))
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		if codec := codecs[MsgType(frame[0])]; codec != nil {
			checkDecode(t, MsgType(frame[0]), codec, frame[1:])
		}
	})
}

// FuzzServerDecode feeds every decoder the switch runs on controller
// bytes: flow-mod and packet batches, group-mods, flow-stats and
// aggregate requests.
func FuzzServerDecode(f *testing.F) {
	fuzzFrames(f, serverCodecs, []seeds{
		{MsgFlowModBatch, append(flowModBatchSeeds(), flowModSeeds()...)},
		{MsgPacketBatch, packetBatchSeeds()},
		{MsgGroupMod, [][]byte{
			AppendGroupMod(nil, &GroupMod{Op: GroupModAdd, ID: 7, Type: core.GroupAll, Buckets: [][]openflow.Action{
				{openflow.Output(1), openflow.SetField(openflow.FieldVLANID, 9)}, {openflow.Drop()}, {},
			}}),
			AppendGroupMod(nil, &GroupMod{Op: GroupModDelete, ID: 7}),
			{byte(GroupModAdd), 0, 0, 0, 1, 0, 0xFF, 0xFF},
		}},
		{MsgFlowStatsRequest, [][]byte{AppendFlowStatsRequest(nil, &FlowStatsRequest{Table: AllTables, Cursor: 9, Max: 128, Cookie: 5, CookieMask: 7})}},
		{MsgAggregateStatsRequest, [][]byte{AppendAggregateStatsRequest(nil, &AggregateStatsRequest{Table: 2, Cookie: 5, CookieMask: 7})}},
	})
}

// FuzzClientDecode feeds every decoder the controller runs on switch
// bytes: packet-batch and flow-mod-batch replies, flow-stats and
// aggregate replies, flow-removed notifications, errors and the stats
// report.
func FuzzClientDecode(f *testing.F) {
	e := openflow.FlowEntry{
		Priority:     7,
		Cookie:       0xDEAD,
		IdleTimeout:  3,
		Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Src, 0x0A000000, 8)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(2))},
	}
	fuzzFrames(f, clientCodecs, []seeds{
		{MsgPacketBatchReply, [][]byte{
			AppendPacketBatchReply(nil, []PacketReply{{Flags: ReplyMatched, Outputs: []uint32{1, 2, 77}}, {Flags: ReplyToController}}),
			{0xFF, 0xFF},
		}},
		{MsgFlowModBatchReply, [][]byte{AppendFlowModBatchReply(nil, &FlowModBatchReply{Commands: 5, Added: 2, Replaced: 1, Modified: 1, Deleted: 1})}},
		{MsgFlowStatsReply, [][]byte{
			AppendFlowStatsReply(nil, &FlowStatsReply{Next: 42, More: true, Flows: []FlowStatsRow{{Table: 1, Age: 9, IdleAge: 2, Packets: 10, Bytes: 640, Entry: e}}}),
			{0, 0, 0, 0, 0, 0xFF, 0xFF},
		}},
		{MsgAggregateStatsReply, [][]byte{AppendAggregateStatsReply(nil, &AggregateStatsReply{Packets: 1 << 40, Bytes: 1 << 50, Flows: 3})}},
		{MsgFlowRemoved, [][]byte{
			AppendFlowRemoved(nil, []FlowRemovedMsg{{Table: 2, Reason: 1, DurationSec: 60, Packets: 10, Bytes: 640, Entry: e}}),
			{0xFF, 0xFF},
		}},
		{MsgError, [][]byte{AppendError(nil, &SwitchError{Type: ErrTypeFlowModFailed, Code: ErrCodeTableFull, Text: "full"}), []byte("abc")}},
		{MsgStatsReply, append(append(statsSeeds(f), cacheStatsSeeds(f)...), advisorStatsSeeds(f)...)},
	})
}

// The per-decoder targets below each fuzz one message type's payloads
// with the same check; a failure they find names the decoder at fault.

func fuzzPayloads(f *testing.F, codecs map[MsgType]wireCodec, typ MsgType, payloads [][]byte) {
	for _, p := range payloads {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) { checkDecode(t, typ, codecs[typ], payload) })
}

// FuzzDecodeFlowMod fuzzes batches of one flow-mod.
func FuzzDecodeFlowMod(f *testing.F) {
	fuzzPayloads(f, serverCodecs, MsgFlowModBatch, flowModSeeds())
}

func FuzzDecodeFlowModBatch(f *testing.F) {
	fuzzPayloads(f, serverCodecs, MsgFlowModBatch, flowModBatchSeeds())
}

func FuzzDecodePacketBatch(f *testing.F) {
	fuzzPayloads(f, serverCodecs, MsgPacketBatch, packetBatchSeeds())
}

func FuzzDecodeStats(f *testing.F) {
	fuzzPayloads(f, clientCodecs, MsgStatsReply, statsSeeds(f))
}

func FuzzDecodeCacheStatsReply(f *testing.F) {
	fuzzPayloads(f, clientCodecs, MsgStatsReply, cacheStatsSeeds(f))
}

func FuzzDecodeAdvisorStatsReply(f *testing.F) {
	fuzzPayloads(f, clientCodecs, MsgStatsReply, advisorStatsSeeds(f))
}

// flowModSeeds are batches of one: each sample command, then a record
// that is empty, one with a valid op and nothing else, and one of all
// ones.
func flowModSeeds() [][]byte {
	var out [][]byte
	for _, fm := range sampleFlowMods() {
		out = append(out, AppendFlowModBatch(nil, []FlowMod{fm}))
	}
	for _, rec := range [][]byte{{}, {1, 0}, bytes.Repeat([]byte{0xFF}, 11)} {
		out = append(out, append([]byte{0, 1}, rec...))
	}
	return out
}

func flowModBatchSeeds() [][]byte {
	return [][]byte{AppendFlowModBatch(nil, sampleFlowMods()), AppendFlowModBatch(nil, nil), {0, 4}}
}

func packetBatchSeeds() [][]byte {
	return [][]byte{
		AppendPacketBatch(nil, []*openflow.Header{
			{InPort: 1, VLANID: 10, EthDst: 0xAABBCCDDEEFF},
			{IPv4Src: 0x0A000001, IPv4Dst: 0x0A000002, SrcPort: 80, DstPort: 443},
		}),
		AppendPacketBatch(nil, nil),
		{},
		{0xFF, 0xFF},
	}
}

// statsSeeds: a live report, an empty one, null and empty sections, and
// no bytes at all.
func statsSeeds(tb testing.TB) [][]byte {
	return [][]byte{
		mustEncodeStats(tb, CollectStats(liveStatsPipeline(tb))),
		[]byte("{}"),
		[]byte(`{"tables":null,"advisor":{"Tables":[{"Candidates":[]}]}}`),
		{},
	}
}

// cacheStatsSeeds: a report carrying only the cache sections, whole,
// truncated and with trailing garbage.
func cacheStatsSeeds(tb testing.TB) [][]byte {
	good := mustEncodeStats(tb, &Stats{
		Microflow: core.TierStats{Hits: 1, Entries: 512, Masks: 1, Armed: true},
		Megaflow:  core.TierStats{Hits: 2, Masks: 3},
		Pressure:  core.PressureStats{Shrinks: 1},
	})
	return [][]byte{good, {}, good[:len(good)-1], append(append([]byte(nil), good...), '}')}
}

// advisorStatsSeeds: a report carrying only the advisor section, whole,
// truncated and with a candidate list of the wrong JSON type.
func advisorStatsSeeds(tb testing.TB) [][]byte {
	good := mustEncodeStats(tb, &Stats{Advisor: core.AdvisorStats{Migrations: 3, Tables: []core.TableAdvisorStats{{
		Table: 1, Auto: true, Incumbent: "dir24", LastReason: "shape", Rules: 9,
		Candidates: []core.AdvisorCandidate{{Backend: "mbt", Eligible: true, Score: 1}, {Backend: "dir24", Score: 4}},
	}}}})
	return [][]byte{good, []byte(`{"advisor":{}}`), good[:len(good)/2], []byte(`{"advisor":{"Tables":[{"Candidates":{}}]}}`)}
}
