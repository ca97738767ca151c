package ofproto

import (
	"strings"
	"testing"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/openflow"
)

func lcEntry(src uint32, prio int, port uint32) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority: prio,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldIPv4Src, uint64(src))},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(port)),
		},
	}
}

func TestFlowStatsCodecRoundTrip(t *testing.T) {
	req := FlowStatsRequest{Table: 3, Cursor: 777, Max: 128, Cookie: 0xDEAD, CookieMask: 0xFFFF}
	var got FlowStatsRequest
	if err := DecodeFlowStatsRequestInto(&got, AppendFlowStatsRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("request round trip: got %+v want %+v", got, req)
	}

	reply := FlowStatsReply{Next: 42, More: true}
	for i := 0; i < 3; i++ {
		e := lcEntry(uint32(i+1), i+10, 5)
		e.IdleTimeout = uint16(i)
		e.Cookie = uint64(i * 7)
		reply.Flows = append(reply.Flows, FlowStatsRow{
			Table:   uint8(i),
			Age:     uint32(100 + i),
			IdleAge: uint32(i),
			Packets: uint64(1000 * i),
			Bytes:   uint64(64000 * i),
			Entry:   *e,
		})
	}
	buf := AppendFlowStatsReply(nil, &reply)
	dec := &FlowStatsReply{}
	if err := DecodeFlowStatsReplyInto(dec, buf, nil); err != nil {
		t.Fatal(err)
	}
	if dec.Next != reply.Next || dec.More != reply.More || len(dec.Flows) != len(reply.Flows) {
		t.Fatalf("reply header round trip: got %+v", dec)
	}
	for i := range reply.Flows {
		w, g := &reply.Flows[i], &dec.Flows[i]
		if g.Table != w.Table || g.Age != w.Age || g.IdleAge != w.IdleAge ||
			g.Packets != w.Packets || g.Bytes != w.Bytes {
			t.Fatalf("row %d counters diverged: got %+v want %+v", i, g, w)
		}
		if g.Entry.Priority != w.Entry.Priority || g.Entry.Cookie != w.Entry.Cookie ||
			g.Entry.IdleTimeout != w.Entry.IdleTimeout || len(g.Entry.Matches) != len(w.Entry.Matches) {
			t.Fatalf("row %d entry diverged: got %+v want %+v", i, g.Entry, w.Entry)
		}
	}

	// Into-decode reuses the rows slice and rejects trailing garbage.
	var into FlowStatsReply
	var ar openflow.EntryArena
	if err := DecodeFlowStatsReplyInto(&into, buf, &ar); err != nil {
		t.Fatal(err)
	}
	first := &into.Flows[:1][0]
	if err := DecodeFlowStatsReplyInto(&into, buf, &ar); err != nil {
		t.Fatal(err)
	}
	if &into.Flows[:1][0] != first {
		t.Error("Into decode reallocated the rows slice on reuse")
	}
	if err := DecodeFlowStatsReplyInto(&into, append(buf, 0), &ar); err == nil {
		t.Error("trailing byte accepted")
	}
	if err := DecodeFlowStatsReplyInto(&into, buf[:len(buf)-1], &ar); err == nil {
		t.Error("truncated reply accepted")
	}
}

func TestAggregateStatsCodecRoundTrip(t *testing.T) {
	req := AggregateStatsRequest{Table: AllTables, Cookie: 5, CookieMask: 7}
	var gotReq AggregateStatsRequest
	if err := DecodeAggregateStatsRequestInto(&gotReq, AppendAggregateStatsRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
	if gotReq != req {
		t.Fatalf("request round trip: got %+v want %+v", gotReq, req)
	}
	reply := AggregateStatsReply{Packets: 1 << 40, Bytes: 1 << 50, Flows: 123456}
	var gotReply AggregateStatsReply
	if err := DecodeAggregateStatsReplyInto(&gotReply, AppendAggregateStatsReply(nil, &reply)); err != nil {
		t.Fatal(err)
	}
	if gotReply != reply {
		t.Fatalf("reply round trip: got %+v want %+v", gotReply, reply)
	}
	if err := DecodeAggregateStatsReplyInto(&gotReply, make([]byte, aggregateStatsReplyLen-1)); err == nil {
		t.Error("truncated aggregate reply accepted")
	}
}

func TestGroupModCodecRoundTrip(t *testing.T) {
	gm := GroupMod{
		Op:   GroupModAdd,
		ID:   7,
		Type: core.GroupAll,
		Buckets: [][]openflow.Action{
			{openflow.Output(1), openflow.SetField(openflow.FieldVLANID, 9)},
			{openflow.Drop()},
			{},
		},
	}
	buf := AppendGroupMod(nil, &gm)
	dec, err := DecodeGroupMod(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Op != gm.Op || dec.ID != gm.ID || dec.Type != gm.Type || len(dec.Buckets) != len(gm.Buckets) {
		t.Fatalf("group-mod round trip: got %+v want %+v", dec, gm)
	}
	for i := range gm.Buckets {
		if len(dec.Buckets[i]) != len(gm.Buckets[i]) {
			t.Fatalf("bucket %d: %d actions, want %d", i, len(dec.Buckets[i]), len(gm.Buckets[i]))
		}
		for j := range gm.Buckets[i] {
			if dec.Buckets[i][j] != gm.Buckets[i][j] {
				t.Fatalf("bucket %d action %d: got %+v want %+v", i, j, dec.Buckets[i][j], gm.Buckets[i][j])
			}
		}
	}

	if _, err := DecodeGroupMod(buf[:len(buf)-1]); err == nil {
		t.Error("truncated group-mod accepted")
	}
	if _, err := DecodeGroupMod(append(buf, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 99 // invalid op
	if _, err := DecodeGroupMod(bad); err == nil {
		t.Error("invalid op accepted")
	}
	for _, op := range []GroupModOp{GroupModAdd, GroupModModify, GroupModDelete} {
		if op.String() == "unknown" {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestFlowRemovedCodecRoundTrip(t *testing.T) {
	recs := []FlowRemovedMsg{
		{Table: 0, Reason: 1, DurationSec: 5, Packets: 10, Bytes: 640, Entry: *lcEntry(1, 10, 1)},
		{Table: 2, Reason: 2, DurationSec: 60, Packets: 0, Bytes: 0, Entry: *lcEntry(2, 20, 2)},
	}
	buf := AppendFlowRemoved(nil, recs)
	dec, err := DecodeFlowRemovedInto(nil, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(dec), len(recs))
	}
	for i := range recs {
		w, g := &recs[i], &dec[i]
		if g.Table != w.Table || g.Reason != w.Reason || g.DurationSec != w.DurationSec ||
			g.Packets != w.Packets || g.Bytes != w.Bytes || g.Entry.Priority != w.Entry.Priority {
			t.Fatalf("record %d diverged: got %+v want %+v", i, g, w)
		}
	}
	if _, err := DecodeFlowRemovedInto(nil, buf[:len(buf)-1], nil); err == nil {
		t.Error("truncated flow-removed accepted")
	}
}

// TestEndToEndFlowLifecycle runs the whole wire surface against a live
// switch: timed flow install, paged stats scrape, aggregate roll-up,
// group mods with ref protection, flow-removed subscription.
func TestEndToEndFlowLifecycle(t *testing.T) {
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Src},
	}); err != nil {
		t.Fatal(err)
	}
	addr, stop := startTestServer(t, p)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Group first, then flows referencing it.
	if err := c.SendGroupMod(&GroupMod{
		Op: GroupModAdd, ID: 1, Type: core.GroupAll,
		Buckets: [][]openflow.Action{{openflow.Output(10)}, {openflow.Output(11)}},
	}); err != nil {
		t.Fatal(err)
	}
	const flows = 600 // several stats pages at the default page size
	for start := 0; start < flows; {
		var fms []FlowMod
		for i := start; i < flows && i < start+128; i++ {
			e := lcEntry(uint32(i+1), i+1, 1)
			e.Cookie = uint64(i % 4)
			e.IdleTimeout = 300
			if i == 0 {
				e.Instructions = []openflow.Instruction{
					openflow.WriteActions(openflow.Group(1)),
				}
			}
			fms = append(fms, FlowMod{Op: FlowAdd, Table: 0, Entry: *e})
		}
		if _, err := c.SendFlowMods(fms); err != nil {
			t.Fatal(err)
		}
		start += len(fms)
	}

	// Push traffic at one flow so counters show up on the wire.
	if _, err := c.SendPacket(&openflow.Header{IPv4Src: 5, PktLen: 100}); err != nil {
		t.Fatal(err)
	}

	// Paged scrape: every flow exactly once, counters attributed.
	seen := make(map[uint64]int)
	var counted uint64
	if err := c.VisitFlowStats(FlowStatsRequest{Table: AllTables}, func(row *FlowStatsRow) bool {
		seen[row.Entry.Matches[0].Value.Lo]++
		if row.Entry.Matches[0].Value.Lo == 5 {
			counted = row.Packets
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != flows {
		t.Fatalf("scrape visited %d distinct flows, want %d", len(seen), flows)
	}
	for src, n := range seen {
		if n != 1 {
			t.Fatalf("flow src=%d scraped %d times, want once", src, n)
		}
	}
	if counted != 1 {
		t.Fatalf("probed flow shows %d packets over the wire, want 1", counted)
	}

	// Aggregate with a cookie filter: a quarter of the flows.
	agg, err := c.AggregateStats(&AggregateStatsRequest{Table: AllTables, Cookie: 2, CookieMask: 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Flows != flows/4 {
		t.Fatalf("aggregate cookie filter counted %d flows, want %d", agg.Flows, flows/4)
	}

	// Deleting the referenced group surfaces the core refusal as a
	// switch error.
	err = c.SendGroupMod(&GroupMod{Op: GroupModDelete, ID: 1})
	if err == nil || !strings.Contains(err.Error(), "referenced") {
		t.Fatalf("delete of referenced group err = %v, want refusal", err)
	}

	// Subscribe, then expire everything; the notifications must arrive
	// ahead of the next reply.
	var gotRemoved []FlowRemovedMsg
	c.OnFlowRemoved = func(recs []FlowRemovedMsg) {
		for _, r := range recs {
			cp := r
			gotRemoved = append(gotRemoved, cp)
		}
	}
	if err := c.SubscribeFlowRemoved(true); err != nil {
		t.Fatal(err)
	}
	now := p.LifecycleClock()
	// Only flows 1..removedRingSize-ish fit the ring; expire a few.
	if _, err := p.Begin().DeleteStrict(0, 3, lcEntry(3, 3, 1).Matches...).Commit(); err != nil {
		t.Fatal(err)
	}
	p.SetLifecycleClock(now) // explicit deletes emit no notification
	// Hard-expire two flows by rewriting them with a tiny timeout.
	for _, src := range []uint32{100, 101} {
		e := lcEntry(src, int(src), 1)
		e.HardTimeout = 1
		if err := c.AddFlow(0, e); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := p.SweepExpired(now + 2); err != nil || n != 2 {
		t.Fatalf("sweep = %d, %v, want 2", n, err)
	}
	// Any dispatched round trip flushes the async queue ahead of its
	// reply (echo is answered below dispatch and does not).
	deadline := time.Now().Add(2 * time.Second)
	for len(gotRemoved) < 2 && time.Now().Before(deadline) {
		if _, err := c.AggregateStats(&AggregateStatsRequest{Table: AllTables}); err != nil {
			t.Fatal(err)
		}
	}
	if len(gotRemoved) != 2 {
		t.Fatalf("received %d flow-removed notifications, want 2", len(gotRemoved))
	}
	for _, r := range gotRemoved {
		if r.Reason != core.FlowRemovedHardTimeout {
			t.Fatalf("notification reason = %d, want hard timeout", r.Reason)
		}
		src := r.Entry.Matches[0].Value.Lo
		if src != 100 && src != 101 {
			t.Fatalf("unexpected expired flow src=%d", src)
		}
	}

	// Stats carries the lifecycle telemetry.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if lc := st.Lifecycle; lc.ExpiredHard != 2 || lc.Sweeps != 1 || lc.Groups != 1 {
		t.Fatalf("wire stats = hard %d sweeps %d groups %d, want 2 / 1 / 1", lc.ExpiredHard, lc.Sweeps, lc.Groups)
	}

	// Unsubscribe: later expiries stay on the switch.
	if err := c.SubscribeFlowRemoved(false); err != nil {
		t.Fatal(err)
	}
}
