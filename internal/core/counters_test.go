package core_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// The counting pipeline: table 0 sorts a packet by its source /24 and
// sends it on to table 1, which outputs it by exact destination. Every
// packet the test sends matches exactly one rule in each table.
const (
	ctrSrcs    = 8  // table-0 rules: 10.0.s.0/24
	ctrDsts    = 8  // table-1 rules: 10.1.0.d → port d+1
	ctrHosts   = 64 // hosts per source /24, so 8·64·8 = 4096 flows
	ctrHotSet  = 256
	ctrGone    = 99  // destination of the rule deleted before the stream
	ctrNext    = 200 // destination of the rule added after it
	ctrMidRule = 201 // destination of the rule committed mid-stream
)

func ctrSrc(s, host int) uint32 { return 0x0A000000 | uint32(s)<<8 | uint32(host) }
func ctrDst(d int) uint32       { return 0x0A010000 | uint32(d) }

// ctrCookie names each rule by cookie: table 0's by source, table 1's by
// destination offset past them.
func ctrCookie(table, n int) uint64 { return uint64(table*1000 + n) }

func ctrDstRule(d int) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority:     10,
		Cookie:       ctrCookie(1, d),
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldIPv4Dst, uint64(ctrDst(d)))},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(d + 1)))},
	}
}

// ctrTotals is the packet and byte count the test expects per rule cookie.
type ctrTotals map[uint64][2]uint64

func (tt ctrTotals) add(h *openflow.Header) {
	bytes := uint64(h.PktLen)
	if bytes == 0 {
		bytes = 64 // a minimum-size frame
	}
	for _, c := range []uint64{ctrCookie(0, int(h.IPv4Src>>8&0xff)), ctrCookie(1, int(h.IPv4Dst&0xff))} {
		tt[c] = [2]uint64{tt[c][0] + 1, tt[c][1] + bytes}
	}
}

// ctrPackets draws n packets: nine in ten from a hot set of flows, the
// rest from all 4096, so both cache tiers hit and entries are rewritten;
// lengths vary, zero included.
func ctrPackets(rng *xrand.Source, n int) []openflow.Header {
	lens := []uint32{0, 64, 65, 576, 1500, 9000}
	out := make([]openflow.Header, n)
	for i := range out {
		f := rng.Intn(ctrSrcs * ctrHosts * ctrDsts)
		if rng.Intn(10) != 0 {
			f = rng.Intn(ctrHotSet) * 17 % (ctrSrcs * ctrHosts * ctrDsts)
		}
		s, host, d := f/(ctrHosts*ctrDsts), f/ctrDsts%ctrHosts, f%ctrDsts
		out[i] = openflow.Header{EthType: 0x0800, IPv4Src: ctrSrc(s, host), IPv4Dst: ctrDst(d), PktLen: lens[rng.Intn(len(lens))]}
	}
	return out
}

// TestFlowCountersExactUnderConcurrency sends a packet mix with known
// per-rule packet and byte totals through Execute from several goroutines
// while a 4-worker ExecuteBatchInto runs, both cache tiers armed, and
// mid-stream resizes the microflow tier, shrinks the megaflow tier,
// commits an unrelated rule (the megaflow sweep) and steps the lifecycle
// clock. Once every goroutine has joined, VisitFlows, AggregateFlowStats
// and a paged flow-stats scrape over the wire must report the totals
// exactly. Before the stream, a rule whose traffic is still pending in
// cache entries is deleted and another added: the new rule must not
// inherit the deleted one's hits.
func TestFlowCountersExactUnderConcurrency(t *testing.T) {
	p := core.NewPipeline()
	for _, cfg := range []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Src}, Miss: core.MissPolicy{Kind: core.MissController}},
		{ID: 1, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Miss: core.MissPolicy{Kind: core.MissDrop}},
	} {
		if _, err := p.AddTable(cfg); err != nil {
			t.Fatal(err)
		}
	}
	tx := p.Begin()
	for s := 0; s < ctrSrcs; s++ {
		tx.Add(0, &openflow.FlowEntry{
			Priority:     10,
			Cookie:       ctrCookie(0, s),
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Src, uint64(ctrSrc(s, 0)), 24)},
			Instructions: []openflow.Instruction{openflow.GotoTable(1)},
		})
	}
	for _, d := range []int{0, 1, 2, 3, 4, 5, 6, 7, ctrGone} {
		tx.Add(1, ctrDstRule(d))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.SetCacheSize(1024)
	p.SetMegaflowSize(256)
	p.SetWorkers(4)

	want := ctrTotals{}
	send := func(h openflow.Header) {
		want.add(&h)
		if res := p.Execute(&h); !res.Matched {
			t.Fatalf("packet %+v missed", h)
		}
	}
	// Traffic for the doomed rule, left pending in both tiers' entries;
	// then it goes, and the rule added next must start from zero.
	for i := 0; i < 400; i++ {
		send(openflow.Header{EthType: 0x0800, IPv4Src: ctrSrc(i%ctrSrcs, i%16), IPv4Dst: ctrDst(ctrGone), PktLen: 100})
	}
	if _, err := p.Begin().DeleteStrict(1, 10, ctrDstRule(ctrGone).Matches...).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Begin().Add(1, ctrDstRule(ctrNext)).Commit(); err != nil {
		t.Fatal(err)
	}
	delete(want, ctrCookie(1, ctrGone))

	const singles, perSingle, batches, batchLen = 3, 6000, 24, 512
	rng := xrand.New(1)
	streams := make([][]openflow.Header, singles+1)
	for i := range singles {
		streams[i] = ctrPackets(rng, perSingle)
	}
	streams[singles] = ctrPackets(rng, batches*batchLen)
	for _, st := range streams {
		for i := range st {
			want.add(&st[i])
		}
	}
	total := int64(singles*perSingle + batches*batchLen)

	var sent atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, singles+2) // one per goroutine, one for the mid-stream commit
	for i := range singles {
		wg.Add(1)
		go func(st []openflow.Header) {
			defer wg.Done()
			for _, h := range st {
				if res := p.Execute(&h); !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != h.IPv4Dst&0xff+1 {
					errs <- "Execute: wrong verdict"
					return
				}
				sent.Add(1)
			}
		}(streams[i])
	}
	wg.Add(1)
	go func(st []openflow.Header) {
		defer wg.Done()
		hs := make([]openflow.Header, batchLen)
		ptrs := make([]*openflow.Header, batchLen)
		var res []core.Result
		for b := 0; b < batches; b++ {
			copy(hs, st[b*batchLen:])
			for j := range hs {
				ptrs[j] = &hs[j]
			}
			res = p.ExecuteBatchInto(ptrs, res)
			for j := range res {
				if !res[j].Matched {
					errs <- "ExecuteBatchInto: a packet missed"
					return
				}
			}
			sent.Add(batchLen)
		}
	}(streams[singles])

	clock := p.LifecycleClock()
	for k, op := range []func(){
		func() {
			if _, err := p.Begin().Add(1, ctrDstRule(ctrMidRule)).Commit(); err != nil {
				errs <- err.Error()
			}
		},
		func() { p.SetCacheSize(512) },
		func() { p.SetMegaflowSize(64) },
		func() { p.SetLifecycleClock(clock + 1) },
	} {
		for sent.Load() < total*int64(k+1)/5 && len(errs) == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		op()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for _, d := range []int{ctrNext, ctrMidRule} {
		want[ctrCookie(1, d)] = [2]uint64{}
	}

	check := func(via string, got ctrTotals) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d flows, want %d", via, len(got), len(want))
		}
		for c, w := range want {
			if got[c] != w {
				t.Errorf("%s: rule %d counted %d packets / %d bytes, want %d / %d", via, c, got[c][0], got[c][1], w[0], w[1])
			}
		}
	}
	visited := ctrTotals{}
	p.VisitFlows(-1, 0, 0, 0, 0, func(fs *core.FlowStats) bool {
		visited[fs.Cookie] = [2]uint64{fs.Packets, fs.Bytes}
		return true
	})
	check("VisitFlows", visited)

	var pkts, bytes uint64
	for _, w := range want {
		pkts += w[0]
		bytes += w[1]
	}
	if agg := p.AggregateFlowStats(-1, 0, 0); agg.Packets != pkts || agg.Bytes != bytes || int(agg.Flows) != len(want) {
		t.Errorf("AggregateFlowStats = %+v, want %d packets / %d bytes / %d flows", agg, pkts, bytes, len(want))
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	c, err := ofproto.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	scraped := ctrTotals{}
	if err := c.VisitFlowStats(ofproto.FlowStatsRequest{Table: ofproto.AllTables, Max: 5}, func(r *ofproto.FlowStatsRow) bool {
		scraped[r.Entry.Cookie] = [2]uint64{r.Packets, r.Bytes}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	check("ofproto FlowStats", scraped)
}
