package core

import (
	"testing"

	"ofmtl/internal/openflow"
)

// lifecycleTableConfig is a one-field exact-match table; lifecycle
// tests key flows on IPv4Src so each probe hits exactly one flow.
func lifecycleTableConfig(id openflow.TableID) TableConfig {
	return TableConfig{ID: id, Fields: []openflow.FieldID{openflow.FieldIPv4Src}}
}

// lifecycleEntry builds one exact-match flow outputting to port.
func lifecycleEntry(src uint32, prio int, port uint32) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority: prio,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldIPv4Src, uint64(src))},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(port)),
		},
	}
}

func lifecyclePipeline(t *testing.T) *Pipeline {
	t.Helper()
	p := NewPipeline()
	if _, err := p.AddTable(lifecycleTableConfig(0)); err != nil {
		t.Fatal(err)
	}
	return p
}

func mustInsert(t *testing.T, p *Pipeline, e *openflow.FlowEntry) {
	t.Helper()
	if _, err := p.Begin().Add(0, e).Commit(); err != nil {
		t.Fatal(err)
	}
}

func srcHeader(src, pktLen uint32) *openflow.Header {
	return &openflow.Header{IPv4Src: src, PktLen: pktLen}
}

// TestIdleAndHardTimeouts drives the expiry machinery with a pinned
// clock: an untouched idle flow expires at install+idle, traffic pushes
// the idle deadline forward, and a hard timeout fires regardless of
// traffic.
func TestIdleAndHardTimeouts(t *testing.T) {
	p := lifecyclePipeline(t)
	t0 := p.LifecycleClock()

	idleQuiet := lifecycleEntry(1, 10, 1)
	idleQuiet.IdleTimeout = 5
	idleBusy := lifecycleEntry(2, 20, 2)
	idleBusy.IdleTimeout = 5
	hardBusy := lifecycleEntry(3, 30, 3)
	hardBusy.HardTimeout = 7
	forever := lifecycleEntry(4, 40, 4)
	for _, e := range []*openflow.FlowEntry{idleQuiet, idleBusy, hardBusy, forever} {
		mustInsert(t, p, e)
	}
	if got := p.Rules(); got != 4 {
		t.Fatalf("installed %d rules, want 4", got)
	}

	// Traffic at t0+4 for the busy flows: pushes idleBusy's deadline to
	// t0+9, does nothing for hardBusy's hard deadline.
	p.SetLifecycleClock(t0 + 4)
	if res := p.Execute(srcHeader(2, 100)); !res.Matched {
		t.Fatal("probe for idleBusy missed")
	}
	if res := p.Execute(srcHeader(3, 100)); !res.Matched {
		t.Fatal("probe for hardBusy missed")
	}

	// t0+5: only the quiet idle flow is due.
	n, err := p.SweepExpired(t0 + 5)
	if err != nil || n != 1 {
		t.Fatalf("sweep(t0+5) = %d, %v, want 1 expiry", n, err)
	}
	if got := p.Rules(); got != 3 {
		t.Fatalf("after first sweep: %d rules, want 3", got)
	}
	if res := p.Execute(srcHeader(1, 100)); res.Matched {
		t.Fatal("expired flow still matches")
	}

	// t0+7: the hard timeout fires even though the flow saw traffic.
	n, err = p.SweepExpired(t0 + 7)
	if err != nil || n != 1 {
		t.Fatalf("sweep(t0+7) = %d, %v, want 1 expiry", n, err)
	}

	// t0+8: idleBusy's pushed deadline (t0+9) has not passed yet.
	n, err = p.SweepExpired(t0 + 8)
	if err != nil || n != 0 {
		t.Fatalf("sweep(t0+8) = %d, %v, want 0 expiries", n, err)
	}

	// t0+9: it has.
	n, err = p.SweepExpired(t0 + 9)
	if err != nil || n != 1 {
		t.Fatalf("sweep(t0+9) = %d, %v, want 1 expiry", n, err)
	}
	if got := p.Rules(); got != 1 {
		t.Fatalf("after all sweeps: %d rules, want 1 (the timeout-free flow)", got)
	}
	if res := p.Execute(srcHeader(4, 100)); !res.Matched {
		t.Fatal("timeout-free flow no longer matches")
	}

	st := p.LifecycleStats()
	if st.ExpiredIdle != 2 || st.ExpiredHard != 1 {
		t.Fatalf("stats = idle %d / hard %d, want 2 / 1", st.ExpiredIdle, st.ExpiredHard)
	}
	if st.Sweeps != 3 {
		t.Fatalf("stats counted %d sweeps, want 3 (the empty sweep must not count)", st.Sweeps)
	}
	if st.Flows != 1 {
		t.Fatalf("stats report %d live flows, want 1", st.Flows)
	}

	recs, _, dropped := p.FlowRemovedSince(0)
	if dropped != 0 || len(recs) != 3 {
		t.Fatalf("flow-removed drain: %d records, %d dropped, want 3 / 0", len(recs), dropped)
	}
	wantReason := map[uint32]uint8{1: FlowRemovedIdleTimeout, 3: FlowRemovedHardTimeout, 2: FlowRemovedIdleTimeout}
	for _, r := range recs {
		src := uint32(r.Entry.Matches[0].Value.Lo)
		if r.Reason != wantReason[src] {
			t.Errorf("flow src=%d removed with reason %d, want %d", src, r.Reason, wantReason[src])
		}
		switch src {
		case 1:
			if r.Packets != 0 || r.DurationSec != 5 {
				t.Errorf("quiet flow: pkts=%d dur=%d, want 0 / 5", r.Packets, r.DurationSec)
			}
		case 2:
			if r.Packets != 1 || r.Bytes != 100 || r.DurationSec != 9 {
				t.Errorf("busy idle flow: pkts=%d bytes=%d dur=%d, want 1 / 100 / 9", r.Packets, r.Bytes, r.DurationSec)
			}
		case 3:
			if r.Packets != 1 || r.DurationSec != 7 {
				t.Errorf("hard flow: pkts=%d dur=%d, want 1 / 7", r.Packets, r.DurationSec)
			}
		}
	}
}

// TestSweepPublishesOneSnapshot pins the tentpole batching guarantee: a
// sweep expiring many flows commits exactly one transaction — one
// snapshot publish — and an empty sweep publishes nothing.
func TestSweepPublishesOneSnapshot(t *testing.T) {
	p := lifecyclePipeline(t)
	t0 := p.LifecycleClock()
	const flows = 64
	for i := 0; i < flows; i++ {
		e := lifecycleEntry(uint32(i+1), i+1, 1)
		e.HardTimeout = 3
		mustInsert(t, p, e)
	}
	p.Refresh()
	before := p.SnapshotVersion()

	n, err := p.SweepExpired(t0 + 3)
	if err != nil || n != flows {
		t.Fatalf("sweep = %d, %v, want %d expiries", n, err, flows)
	}
	p.Refresh()
	if got := p.SnapshotVersion() - before; got != 1 {
		t.Fatalf("sweep of %d flows published %d snapshots, want exactly 1", flows, got)
	}

	before = p.SnapshotVersion()
	if n, err := p.SweepExpired(t0 + 10); err != nil || n != 0 {
		t.Fatalf("empty sweep = %d, %v", n, err)
	}
	p.Refresh()
	if got := p.SnapshotVersion() - before; got != 0 {
		t.Fatalf("empty sweep published %d snapshots, want 0", got)
	}
}

// TestLastSeenFollowsClockBothWays moves the lifecycle clock forwards,
// backwards and forwards again, with several packets per second: the
// last-seen second follows the clock each time (including down), repeats
// within a second still count, and IdleAge and the idle deadline are
// measured from the last second stored.
func TestLastSeenFollowsClockBothWays(t *testing.T) {
	p := lifecyclePipeline(t)
	t0 := p.LifecycleClock()
	e := lifecycleEntry(1, 10, 1)
	e.IdleTimeout = 5
	mustInsert(t, p, e)

	flow := func() FlowStats {
		t.Helper()
		var fs []FlowStats
		p.VisitFlows(-1, 0, 0, 0, 0, func(s *FlowStats) bool {
			fs = append(fs, *s)
			return true
		})
		if len(fs) != 1 {
			t.Fatalf("%d flows, want 1", len(fs))
		}
		return fs[0]
	}
	pkts := uint64(0)
	for _, st := range []struct {
		hitAt, readAt int64
		idleAge       uint32
	}{
		{10, 12, 2},
		{3, 6, 3}, // the clock went back: so does the last-seen second
		{8, 8, 0},
	} {
		p.SetLifecycleClock(t0 + st.hitAt)
		for i := 0; i < 3; i++ {
			if !p.Execute(srcHeader(1, 100)).Matched {
				t.Fatal("probe missed")
			}
			pkts++
		}
		p.SetLifecycleClock(t0 + st.readAt)
		if fs := flow(); fs.IdleAge != st.idleAge || fs.Packets != pkts {
			t.Fatalf("hit at t0+%d, read at t0+%d: idle age %d, %d packets; want %d, %d",
				st.hitAt, st.readAt, fs.IdleAge, fs.Packets, st.idleAge, pkts)
		}
	}

	// The idle deadline is the last hit (t0+8) plus 5.
	if n, err := p.SweepExpired(t0 + 12); err != nil || n != 0 {
		t.Fatalf("sweep(t0+12) = %d, %v, want 0 expiries", n, err)
	}
	if n, err := p.SweepExpired(t0 + 13); err != nil || n != 1 {
		t.Fatalf("sweep(t0+13) = %d, %v, want 1 expiry", n, err)
	}
}

// TestFlowCounters checks per-flow packet/byte accounting end to end:
// accumulation across Execute and ExecuteBatch, survival across
// snapshot republish, and the modify-resets-counters rule.
func TestFlowCounters(t *testing.T) {
	p := lifecyclePipeline(t)
	a := lifecycleEntry(1, 10, 1)
	b := lifecycleEntry(2, 20, 2)
	mustInsert(t, p, a)
	mustInsert(t, p, b)

	for i := 0; i < 3; i++ {
		p.Execute(srcHeader(1, 100))
	}
	hs := []*openflow.Header{srcHeader(2, 200), srcHeader(2, 200), srcHeader(1, 0)}
	p.ExecuteBatch(hs)

	counters := func() map[uint32][2]uint64 {
		out := make(map[uint32][2]uint64)
		p.VisitFlows(-1, 0, 0, 0, 0, func(fs *FlowStats) bool {
			out[uint32(fs.Entry.Matches[0].Value.Lo)] = [2]uint64{fs.Packets, fs.Bytes}
			return true
		})
		return out
	}

	// PktLen 0 is charged as a 64-byte minimum frame.
	want := map[uint32][2]uint64{1: {4, 364}, 2: {2, 400}}
	if got := counters(); got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("counters = %v, want %v", got, want)
	}

	// An unrelated commit republishes the snapshot; counters persist.
	mustInsert(t, p, lifecycleEntry(3, 30, 3))
	p.Refresh()
	if got := counters(); got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("counters after republish = %v, want %v", got, want)
	}

	agg := p.AggregateFlowStats(-1, 0, 0)
	if agg.Packets != 6 || agg.Bytes != 764 || agg.Flows != 3 {
		t.Fatalf("aggregate = %+v, want 6 pkts / 764 bytes / 3 flows", agg)
	}

	// Modify resets the flow's counters (remove + insert semantics).
	mod := lifecycleEntry(1, 10, 9)
	if _, err := p.Begin().Modify(0, mod).Commit(); err != nil {
		t.Fatal(err)
	}
	if got := counters(); got[1] != [2]uint64{0, 0} {
		t.Fatalf("modified flow kept counters %v, want reset to zero", got[1])
	}

	// A cached flow counts on its cache entry: 70 000 hits of 65 535 bytes
	// overflow the entry's 16-bit packet field, and the total its 32-bit
	// byte field; a few 3 GB "packets" overflow the byte field directly.
	p.SetCacheSize(256)
	mustInsert(t, p, lifecycleEntry(4, 40, 4))
	h := new(openflow.Header)
	for i := 0; i < 70000; i++ {
		*h = *srcHeader(4, 65535)
		p.Execute(h)
	}
	for i := 0; i < 3; i++ {
		*h = *srcHeader(4, 3_000_000_000)
		p.Execute(h)
	}
	if got, want := counters()[4], [2]uint64{70003, 70000*65535 + 3*3_000_000_000}; got != want {
		t.Fatalf("cached flow counted %v, want %v", got, want)
	}
}

// TestVisitFlowsPagingAndFilters exercises the lock-free scrape:
// cursor-based paging visits every flow exactly once, and the table and
// cookie filters select the right subsets.
func TestVisitFlowsPagingAndFilters(t *testing.T) {
	p := lifecyclePipeline(t)
	if _, err := p.AddTable(lifecycleTableConfig(1)); err != nil {
		t.Fatal(err)
	}
	const flows = 10
	for i := 0; i < flows; i++ {
		e := lifecycleEntry(uint32(i+1), i+1, 1)
		e.Cookie = uint64(i % 2)
		if _, err := p.Begin().Add(openflow.TableID(i%2), e).Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Page through everything three flows at a time.
	seen := make(map[uint32]int)
	var cursor uint32
	pages := 0
	for {
		next, more := p.VisitFlows(-1, 0, 0, cursor, 3, func(fs *FlowStats) bool {
			seen[uint32(fs.Entry.Matches[0].Value.Lo)]++
			return true
		})
		pages++
		if !more {
			break
		}
		cursor = next
		if pages > flows {
			t.Fatal("paging never terminated")
		}
	}
	if len(seen) != flows {
		t.Fatalf("paging visited %d distinct flows, want %d", len(seen), flows)
	}
	for src, n := range seen {
		if n != 1 {
			t.Fatalf("flow src=%d visited %d times, want exactly once", src, n)
		}
	}

	count := func(table int, cookie, mask uint64) int {
		n := 0
		p.VisitFlows(table, cookie, mask, 0, 0, func(*FlowStats) bool { n++; return true })
		return n
	}
	if got := count(0, 0, 0); got != 5 {
		t.Fatalf("table-0 filter selected %d flows, want 5", got)
	}
	if got := count(-1, 1, ^uint64(0)); got != 5 {
		t.Fatalf("cookie filter selected %d flows, want 5", got)
	}
	if got := count(1, 0, ^uint64(0)); got != 0 {
		t.Fatalf("table-1 cookie-0 selected %d flows, want 0 (odd flows land in table 1)", got)
	}

	agg := p.AggregateFlowStats(0, 0, 0)
	if agg.Flows != 5 {
		t.Fatalf("aggregate table filter counted %d flows, want 5", agg.Flows)
	}
}

// TestFlowRemovedRingOverflow floods the notification ring past its
// capacity and checks the overflow is counted, never silent, and counted
// once when several consumers (a switch's subscribed controllers) lose
// the same records.
func TestFlowRemovedRingOverflow(t *testing.T) {
	for _, consumers := range []int{1, 2} {
		p := lifecyclePipeline(t)
		t0 := p.LifecycleClock()
		const flows = removedRingSize + 40
		for i := 0; i < flows; i++ {
			e := lifecycleEntry(uint32(i+1), i+1, 1)
			e.HardTimeout = 2
			mustInsert(t, p, e)
		}
		if n, err := p.SweepExpired(t0 + 2); err != nil || n != flows {
			t.Fatalf("sweep = %d, %v, want %d", n, err, flows)
		}

		for c := 0; c < consumers; c++ {
			recs, next, dropped := p.FlowRemovedSince(0)
			if len(recs) != removedRingSize {
				t.Fatalf("consumer %d drained %d records, want the ring's %d", c, len(recs), removedRingSize)
			}
			if dropped != flows-removedRingSize {
				t.Fatalf("consumer %d was told %d dropped, want %d", c, dropped, flows-removedRingSize)
			}
			// A second drain from the returned cursor is empty, no drops.
			if recs, _, dropped = p.FlowRemovedSince(next); len(recs) != 0 || dropped != 0 {
				t.Fatalf("second drain = %d records, %d dropped, want empty", len(recs), dropped)
			}
		}
		st := p.LifecycleStats()
		if st.Removed != flows || st.RemovedDropped != flows-removedRingSize {
			t.Fatalf("%d consumers: stats removed=%d dropped=%d, want %d / %d", consumers, st.Removed, st.RemovedDropped, flows, flows-removedRingSize)
		}
	}
}

// TestExpiryPrecisionWithCaches verifies a sweep's cache invalidation
// is precise: the expired flow stops matching through both cache tiers
// while an untouched flow keeps its cached path.
func TestExpiryPrecisionWithCaches(t *testing.T) {
	p := lifecyclePipeline(t)
	p.SetCacheSize(256)
	p.SetMegaflowSize(256)
	t0 := p.LifecycleClock()

	doomed := lifecycleEntry(1, 10, 1)
	doomed.HardTimeout = 3
	keeper := lifecycleEntry(2, 20, 2)
	mustInsert(t, p, doomed)
	mustInsert(t, p, keeper)

	// Warm both flows into the caches.
	for i := 0; i < 4; i++ {
		p.Execute(srcHeader(1, 60))
		p.Execute(srcHeader(2, 60))
	}

	if n, err := p.SweepExpired(t0 + 3); err != nil || n != 1 {
		t.Fatalf("sweep = %d, %v, want 1", n, err)
	}
	if res := p.Execute(srcHeader(1, 60)); res.Matched {
		t.Fatal("expired flow still served from a cache tier")
	}
	if res := p.Execute(srcHeader(2, 60)); !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 2 {
		t.Fatalf("surviving flow broken after sweep: %+v", res)
	}

	// The survivor's counters kept attributing through the sweep.
	agg := p.AggregateFlowStats(-1, 0, 0)
	if agg.Flows != 1 || agg.Packets != 5 {
		t.Fatalf("post-sweep aggregate = %+v, want 1 flow / 5 pkts", agg)
	}
}

// TestLifecycleZeroAllocSteadyState pins the hot-path guarantee with
// counters and idle-tracking enabled: steady-state Execute — cached or
// full walk — and ExecuteBatchInto allocate nothing per packet even
// though every packet touches per-flow counters for idle-timed flows.
func TestLifecycleZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is skewed by race instrumentation")
	}
	build := func(cached bool) *Pipeline {
		p := lifecyclePipeline(t)
		if cached {
			p.SetCacheSize(256)
			p.SetMegaflowSize(256)
		}
		for i := 0; i < 16; i++ {
			e := lifecycleEntry(uint32(i+1), i+1, 1)
			e.IdleTimeout = 600 // counters feed idle decisions on every packet
			mustInsert(t, p, e)
		}
		p.Refresh()
		return p
	}
	measure := func(name string, f func()) {
		t.Helper()
		for w := 0; w < 64; w++ {
			f()
		}
		if n := testing.AllocsPerRun(512, f); n != 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, n)
		}
	}

	pw := build(false) // no caches: every Execute walks and touches
	h := new(openflow.Header)
	i := 0
	measure("walk+touch", func() {
		*h = openflow.Header{IPv4Src: uint32(i%16 + 1), PktLen: 100}
		p := pw.Execute(h)
		_ = p
		i++
	})

	pc := build(true) // cached: hits touch through the cache's refs
	for j := 0; j < 16; j++ {
		*h = openflow.Header{IPv4Src: uint32(j + 1), PktLen: 100}
		pc.Execute(h)
	}
	measure("cache-hit+touch", func() {
		*h = openflow.Header{IPv4Src: uint32(i%16 + 1), PktLen: 100}
		pc.Execute(h)
		i++
	})

	// Batch path: single worker (batch <= batchChunk), reused reply
	// slice, distinct headers.
	hs := make([]*openflow.Header, batchChunk)
	for j := range hs {
		hs[j] = srcHeader(uint32(j%16+1), 100)
	}
	res := make([]Result, 0, len(hs))
	measure("batch+touch", func() {
		res = pc.ExecuteBatchInto(hs, res)
	})

	if agg := pc.AggregateFlowStats(-1, 0, 0); agg.Packets == 0 {
		t.Fatal("alloc measurement never charged the flow counters")
	}
}
