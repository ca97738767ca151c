package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

// The traced run reports the per-layer metrics. Layers are measured from
// outside: the benchmark records a span around each call into a public
// function. The server's side of a TCP hop cannot be seen from outside,
// so each traced round trip is followed by a replay span that runs the
// server's stack (decode batch -> execute batch -> encode reply) in
// process, on the same headers, against a second pipeline built and
// warmed exactly like the switch's. What the replay cannot account for
// in the client's wait is transport: TCP, syscalls, goroutine hand-off.

// Share of --seconds each traced phase gets.
const (
	shareTracedWire = 0.12
	shareWire       = 0.12
	shareRTT        = 0.07
	shareEcho       = 0.03
	shareFlowMods   = 0.10
	shareExecute    = 0.10
	shareBatch      = 0.06
	shareCommit     = 0.10
	shareCodec      = 0.02 // each of flow-mod encode and decode
	shareNoCache    = 0.08
	shareClassify   = 0.04
	layerWindows    = 5
	classifySample  = 1 << 13
)

type spanName uint8

const (
	spRoundTrip spanName = iota
	spEncodeBatch
	spWait
	spDecodeReply
	spReplay
	spDecodeBatch
	spExecuteBatch
	spEncodeReply
	spFlowModRoundTrip
	spCommit
	spanNames
)

var spanLabel = [spanNames]string{
	"wire.roundtrip", "ofproto.encode_batch", "wire.wait", "ofproto.decode_reply",
	"replay", "ofproto.decode_batch", "core.execute_batch", "ofproto.encode_reply",
	"wire.flowmod_roundtrip", "core.commit",
}

// span is one timed call: pointer-free, so a million of them cost the
// collector nothing.
type span struct {
	start, end time.Duration // since the tracer's origin
	parent     int32         // span index, -1 at the top
	batch      int32         // spans of one request share it
	name       spanName
}

type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) begin(name spanName, parent, batch int32) int32 {
	t.spans = append(t.spans, span{start: time.Since(t.origin), parent: parent, batch: batch, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = time.Since(t.origin) }

func (t *tracer) dur(id int32) time.Duration { return t.spans[id].end - t.spans[id].start }

// totals returns, per span name, the summed duration and the summed self
// time (duration minus what the span's children cover).
func (t *tracer) totals() (total, self [spanNames]time.Duration, count [spanNames]int) {
	children := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		total[s.name] += d
		count[s.name]++
		if s.parent >= 0 {
			children[s.parent] += d
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		self[s.name] += s.end - s.start - children[i]
	}
	return total, self, count
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, "[")
	for i := range t.spans {
		s := &t.spans[i]
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, `%s{"id":%d,"parent":%d,"batch":%d,"name":%q,"start_ns":%d,"end_ns":%d}`,
			sep, i, s.parent, s.batch, spanLabel[s.name], s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// rawClient speaks the packet-batch exchange of ofproto.Client with the
// public codec functions, so a span can sit between each step.
type rawClient struct {
	conn    net.Conn
	out, in []byte
}

func dialRaw(addr string) (*rawClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	msg, err := ofproto.ReadMessage(conn)
	if err == nil && msg.Type != ofproto.MsgHello {
		err = fmt.Errorf("expected hello, got %s", msg.Type)
	}
	if err == nil {
		err = ofproto.DecodeHello(msg.Payload)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return &rawClient{conn: conn}, nil
}

// frameHeaderLen is how many bytes BeginFrame reserves ahead of a payload.
var frameHeaderLen = len(ofproto.BeginFrame(nil))

// sendPackets is Client.SendPackets with spans. It returns the round
// trip's span.
func (c *rawClient) sendPackets(t *tracer, batch int32, hs []*openflow.Header) (int32, []ofproto.PacketReply, error) {
	rt := t.begin(spRoundTrip, -1, batch)
	s := t.begin(spEncodeBatch, rt, batch)
	c.out = ofproto.BeginFrame(c.out)
	c.out = ofproto.AppendPacketBatch(c.out, hs)
	t.end(s)

	s = t.begin(spWait, rt, batch)
	err := ofproto.WriteFrame(c.conn, ofproto.MsgPacketBatch, c.out)
	var msg ofproto.Message
	if err == nil {
		msg, c.in, err = ofproto.ReadMessageBuf(c.conn, c.in)
	}
	t.end(s)
	if err != nil {
		return rt, nil, err
	}
	if msg.Type != ofproto.MsgPacketBatchReply {
		return rt, nil, fmt.Errorf("expected %s, got %s", ofproto.MsgPacketBatchReply, msg.Type)
	}

	s = t.begin(spDecodeReply, rt, batch)
	replies, err := ofproto.DecodePacketBatchReply(msg.Payload)
	t.end(s)
	t.end(rt)
	return rt, replies, err
}

// replayer is the server's packet-batch handler run in-process.
type replayer struct {
	p       *core.Pipeline
	hs      []*openflow.Header
	arena   []openflow.Header
	results []core.Result
	replies []ofproto.PacketReply
	out     []byte
}

func (r *replayer) packets(t *tracer, batch int32, payload []byte) ([]ofproto.PacketReply, error) {
	rp := t.begin(spReplay, -1, batch)
	s := t.begin(spDecodeBatch, rp, batch)
	var err error
	r.hs, r.arena, err = ofproto.DecodePacketBatchArena(payload, r.hs, r.arena)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin(spExecuteBatch, rp, batch)
	r.results = r.p.ExecuteBatchInto(r.hs, r.results)
	t.end(s)
	s = t.begin(spEncodeReply, rp, batch)
	r.replies = r.replies[:0]
	for i := range r.results {
		r.replies = append(r.replies, ofproto.PacketReply{Flags: flagsOf(&r.results[i]), Outputs: r.results[i].Outputs})
	}
	r.out = ofproto.BeginFrame(r.out)
	r.out = ofproto.AppendPacketBatchReply(r.out, r.replies)
	t.end(s)
	t.end(rp)
	return r.replies, nil
}

// newReplica builds the workload's pipeline a second time and warms it
// with the same trace as setup does, and reports the heap the bare
// pipeline holds (the filters and the second trace are garbage by then).
func newReplica(wl *workload, seed uint64, sz sizes, trace []openflow.Header) (*core.Pipeline, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := wl.make(seed, sz)
	if err != nil {
		return nil, 0, err
	}
	p := m.p
	m = made{}
	p.SetWorkers(1)
	p.SetCacheSize(0)
	p.SetMegaflowSize(0)
	p.Refresh()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)

	p.SetCacheSize(wl.cache)
	p.SetMegaflowSize(wl.mega)
	var h openflow.Header
	for i := range trace {
		h = trace[i]
		p.Execute(&h)
	}
	return p, heap, nil
}

// allocsDuring counts heap allocations made while f runs.
func allocsDuring(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// percentile returns the q-quantile of sorted durations in microseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))].Nanoseconds()) / 1e3
}

// latencies calls f in a closed loop for about d and returns each
// call's duration, sorted.
func latencies(d time.Duration, f func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds, nil
}

// nsPerOp converts a phase's best window to nanoseconds per operation.
func nsPerOp(ws windows) float64 { return 1e9 / ws.best() }

func runTraced(wl *workload, seed uint64, sz sizes, d time.Duration, outDir string) (*result, error) {
	share := func(s float64, n int) time.Duration { return window(time.Duration(s*float64(d)), n) }

	w, err := setup(wl, seed, sz)
	if err != nil {
		return nil, err
	}
	if _, err := w.reference(); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	replica, heap, err := newReplica(wl, seed, sz, w.trace)
	if err != nil {
		return nil, err
	}
	drv := &driver{w: w}
	sw, err := serve(w.p)
	if err != nil {
		return nil, err
	}
	defer sw.close()
	raw, err := dialRaw(sw.addr)
	if err != nil {
		return nil, err
	}
	defer raw.conn.Close()

	// Traced round trips, each followed by its replay.
	tr := newTracer()
	rep := &replayer{p: replica}
	tracedWire := make(windows, 0, layerWindows)
	batch := int32(0)
	tracedWindow := share(shareTracedWire, layerWindows)
	runtime.GC()
	for range layerWindows {
		var busy time.Duration
		pkts := 0
		for start := time.Now(); time.Since(start) < tracedWindow; {
			rt, replies, err := raw.sendPackets(tr, batch, w.ptrs[drv.cur:drv.cur+packetBatch])
			if err != nil {
				return nil, fmt.Errorf("traced SendPackets: %w", err)
			}
			busy += tr.dur(rt)
			replayed, err := rep.packets(tr, batch, raw.out[frameHeaderLen:])
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			if len(replies) != packetBatch || len(replayed) != packetBatch {
				return nil, fmt.Errorf("batch %d: %d replies, %d replayed, want %d", batch, len(replies), len(replayed), packetBatch)
			}
			for j := range replies {
				drv.checkPacket(drv.cur+j, replies[j].Flags, replies[j].Outputs)
				if replies[j].Flags != replayed[j].Flags || !sameOutputs(replies[j].Outputs, replayed[j].Outputs) {
					drv.t.packetsFailed++
				}
			}
			pkts += packetBatch
			if drv.advance() {
				fms := w.churn.batch()
				s := tr.begin(spFlowModRoundTrip, -1, batch)
				_, err := drv.wireFlowModStep(sw.cli, fms)
				tr.end(s)
				busy += tr.dur(s) // the untraced rate pays for its churn too
				if err != nil {
					return nil, err
				}
				s = tr.begin(spCommit, -1, batch)
				res, err := commit(replica, fms)
				tr.end(s)
				if err != nil || res.Commands != len(fms) {
					return nil, fmt.Errorf("replayed commit: %d of %d commands, err %v", res.Commands, len(fms), err)
				}
			}
			batch++
		}
		tracedWire = append(tracedWire, float64(pkts)/busy.Seconds())
	}
	tracedPackets := float64(batch) * packetBatch
	if fms := w.churn.restore(); fms != nil {
		if _, err := commit(replica, fms); err != nil {
			return nil, err
		}
		if _, err := drv.commitStep(fms); err != nil {
			return nil, err
		}
	}

	// The same exchange untraced, through ofproto.Client.
	var wire windows
	runtime.GC()
	before := drv.t.packets
	wireAllocs, err := allocsDuring(func() (err error) {
		wire, err = timed(layerWindows, share(shareWire, layerWindows), func() (int, error) { return drv.wireStep(sw.cli) })
		return err
	})
	if err != nil {
		return nil, err
	}
	wirePackets := drv.t.packets - before
	if err := drv.restore(); err != nil {
		return nil, err
	}

	// Single packets and bare echoes: mostly kernel and scheduler.
	rtt, err := latencies(share(shareRTT, 1), func() error {
		r, err := sw.cli.SendPacket(w.ptrs[drv.cur])
		if err == nil {
			drv.checkPacket(drv.cur, r.Flags, r.Outputs)
			drv.t.packets++
			drv.cur = (drv.cur + 1) % len(w.trace)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("SendPacket: %w", err)
	}
	drv.cur = 0
	echo, err := latencies(share(shareEcho, 1), sw.cli.Echo)
	if err != nil {
		return nil, fmt.Errorf("Echo: %w", err)
	}

	runtime.GC()
	flowMods, err := timed(layerWindows, share(shareFlowMods, layerWindows), func() (int, error) {
		return drv.wireFlowModStep(sw.cli, w.churn.batch())
	})
	if err != nil {
		return nil, err
	}
	if err := drv.restore(); err != nil {
		return nil, err
	}
	_ = raw.conn.Close()
	if err := sw.close(); err != nil {
		return nil, err
	}

	// The pipeline alone: per-packet and batch entry points, churn off.
	drv.quiet = true
	cache0, mega0 := w.p.CacheStats(), w.p.MegaflowStats()
	var execute windows
	runtime.GC()
	before = drv.t.packets
	execAllocs, err := allocsDuring(func() (err error) {
		execute, err = timed(layerWindows, share(shareExecute, layerWindows), drv.executeStep)
		return err
	})
	if err != nil {
		return nil, err
	}
	execPackets := float64(drv.t.packets - before)
	cache1, mega1 := w.p.CacheStats(), w.p.MegaflowStats()
	microShare := float64(cache1.Hits-cache0.Hits) / execPackets
	megaShare := float64(mega1.Hits-mega0.Hits) / execPackets

	var results []core.Result
	batched, err := timed(layerWindows, share(shareBatch, layerWindows), func() (int, error) {
		results = w.p.ExecuteBatchInto(w.ptrs[drv.cur:drv.cur+packetBatch], results)
		for j := range results {
			drv.checkPacket(drv.cur+j, flagsOf(&results[j]), results[j].Outputs)
		}
		drv.advance()
		return packetBatch, nil
	})
	if err != nil {
		return nil, err
	}

	// The control plane alone: one commit, then the first lookup after it.
	var commits, firsts []float64
	var committed windows
	var h openflow.Header
	runtime.GC()
	before = drv.t.cmds
	commitAllocs, err := allocsDuring(func() (err error) {
		committed, err = timed(layerWindows, share(shareCommit, layerWindows), func() (int, error) {
			t0 := time.Now()
			n, err := drv.commitStep(w.churn.batch())
			if err != nil {
				return 0, err
			}
			t1 := time.Now()
			h = w.trace[drv.cur]
			w.p.Execute(&h)
			firsts = append(firsts, float64(time.Since(t1).Nanoseconds())/1e3)
			commits = append(commits, float64(t1.Sub(t0).Nanoseconds())/1e3)
			// 8 rules are deleted right now, and only a churning workload
			// knows which packets they decide: timed, not judged.
			drv.t.packets++
			drv.t.packetsUnchecked++
			drv.cur = (drv.cur + packetBatch) % len(w.trace)
			return n, nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	commitCmds := float64(drv.t.cmds - before)
	if err := drv.recheck(recheckPackets); err != nil {
		return nil, err
	}

	// The flow-mod codec alone.
	fms := w.churn.batch()
	var frame []byte
	encoded, err := timed(layerWindows, share(shareCodec, layerWindows), func() (int, error) {
		frame = ofproto.AppendFlowModBatch(frame[:0], fms)
		return len(fms), nil
	})
	if err != nil {
		return nil, err
	}
	var decodedFMs []ofproto.FlowMod
	var arena openflow.EntryArena
	decoded, err := timed(layerWindows, share(shareCodec, layerWindows), func() (int, error) {
		var err error
		decodedFMs, err = ofproto.DecodeFlowModBatchArena(frame, decodedFMs, &arena)
		return len(decodedFMs), err
	})
	if err != nil {
		return nil, fmt.Errorf("DecodeFlowModBatchArena: %w", err)
	}

	// The slow path alone, on the replica with both tiers off: the whole
	// walk, then the largest table's classifier on headers as that table
	// sees them (Execute leaves the metadata it wrote).
	replica.SetCacheSize(0)
	replica.SetMegaflowSize(0)
	slow := &driver{w: &world{w: wl, p: replica, trace: w.trace, want: w.want, outs: w.outs}, quiet: true}
	noCache, err := timed(layerWindows, share(shareNoCache, layerWindows), slow.executeStep)
	if err != nil {
		return nil, err
	}
	drv.t.packets += slow.t.packets
	drv.t.packetsFailed += slow.t.packetsFailed
	seen := make([]openflow.Header, min(classifySample, len(w.trace)))
	for i := range seen {
		seen[i] = w.trace[i]
		replica.Execute(&seen[i])
	}
	table, _ := replica.Table(w.churn.table)
	next := 0
	classified, err := timed(layerWindows, share(shareClassify, layerWindows), func() (int, error) {
		for range packetBatch {
			h = seen[next]
			table.Classify(&h)
			next = (next + 1) % len(seen)
		}
		return packetBatch, nil
	})
	if err != nil {
		return nil, err
	}

	if err := tr.write(filepath.Join(outDir, "trace-"+wl.name+".json")); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	total, self, count := tr.totals()
	perPkt := func(n spanName) float64 { return float64(total[n].Nanoseconds()) / tracedPackets }
	served := total[spDecodeBatch] + total[spExecuteBatch] + total[spEncodeReply]
	transport := float64((total[spWait] - served).Nanoseconds()) / tracedPackets

	fmt.Printf("spans over %d traced batches (%s):\n", batch, filepath.Join(outDir, "trace-"+wl.name+".json"))
	for n := spanName(0); n < spanNames; n++ {
		if count[n] > 0 {
			fmt.Printf("  %-24s count=%-7d total=%-14v self=%v\n", spanLabel[n], count[n], total[n], self[n])
		}
	}
	rt := float64(total[spRoundTrip])
	fmt.Printf("wire.roundtrip attribution: encode_batch %.1f%% + decode_reply %.1f%% + replayed server stack %.1f%% + transport %.1f%% = %.1f%%; unattributed (self) %.1f%%\n",
		100*float64(total[spEncodeBatch])/rt, 100*float64(total[spDecodeReply])/rt, 100*float64(served)/rt,
		100*float64(total[spWait]-served)/rt, 100*float64(total[spEncodeBatch]+total[spDecodeReply]+total[spWait])/rt,
		100*float64(self[spRoundTrip])/rt)
	t := &drv.t
	t.print()

	rules := float64(w.rules)
	var search, index, action uint64
	for _, tm := range w.mem.Tables {
		search += tm.SearchBits
		index += tm.IndexBits
		action += tm.ActionBits
	}
	res := &result{
		Correct:   t.failed() == 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics: map[string]metric{
			"ofproto.encode_batch_ns_per_pkt":    {perPkt(spEncodeBatch), "ns/pkt"},
			"ofproto.decode_batch_ns_per_pkt":    {perPkt(spDecodeBatch), "ns/pkt"},
			"ofproto.encode_reply_ns_per_pkt":    {perPkt(spEncodeReply), "ns/pkt"},
			"ofproto.decode_reply_ns_per_pkt":    {perPkt(spDecodeReply), "ns/pkt"},
			"ofproto.transport_ns_per_pkt":       {transport, "ns/pkt"},
			"ofproto.allocs_per_kpkt":            {1e3 * float64(wireAllocs) / float64(wirePackets), "allocs/kpkt"},
			"ofproto.rtt1_p50_us":                {percentile(rtt, 0.50), "us"},
			"ofproto.rtt1_p99_us":                {percentile(rtt, 0.99), "us"},
			"ofproto.echo_rtt_p50_us":            {percentile(echo, 0.50), "us"},
			"ofproto.flowmod_encode_ns_per_cmd":  {nsPerOp(encoded), "ns/cmd"},
			"ofproto.flowmod_decode_ns_per_cmd":  {nsPerOp(decoded), "ns/cmd"},
			"core.microflow_hit_share":           {microShare, "share"},
			"core.megaflow_hit_share":            {megaShare, "share"},
			"core.walk_share":                    {1 - microShare - megaShare, "share"},
			"core.execute_ns_per_pkt":            {nsPerOp(execute), "ns/pkt"},
			"core.batch_ns_per_pkt":              {nsPerOp(batched), "ns/pkt"},
			"core.allocs_per_kpkt":               {1e3 * float64(execAllocs) / execPackets, "allocs/kpkt"},
			"core.execute_nocache_ns_per_pkt":    {nsPerOp(noCache), "ns/pkt"},
			"core.classify_ns_per_lookup":        {nsPerOp(classified), "ns/lookup"},
			"core.tables_visited_per_pkt":        {w.tablesVisited, "tables/pkt"},
			"core.commit_us_per_cmd":             {1e6 / committed.best(), "us/cmd"},
			"core.commit_us_p50":                 {median(commits), "us"},
			"core.commit_allocs_per_cmd":         {float64(commitAllocs) / commitCmds, "allocs/cmd"},
			"core.first_execute_after_commit_us": {median(firsts), "us"},
			"core.build_s":                       {w.build.Seconds(), "s"},
			"core.search_bits_per_rule":          {float64(search) / rules, "bits/rule"},
			"core.index_bits_per_rule":           {float64(index) / rules, "bits/rule"},
			"core.action_bits_per_rule":          {float64(action) / rules, "bits/rule"},
			"core.heap_bytes_per_rule":           {float64(heap) / rules, "bytes/rule"},
			"filterset.generate_s":               {w.genRules.Seconds(), "s"},
			"traffic.generate_s":                 {w.genTrace.Seconds(), "s"},
			"bench.wire_window_spread_pct":       {wire.spreadPct(), "%"},
			"bench.datapath_window_spread_pct":   {execute.spreadPct(), "%"},
			"bench.flowmod_window_spread_pct":    {flowMods.spreadPct(), "%"},
			"bench.trace_overhead_pct":           {100 * (wire.best() - tracedWire.best()) / wire.best(), "%"},
		},
	}
	printMetrics(res.Metrics)
	return res, nil
}
