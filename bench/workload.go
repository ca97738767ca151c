package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
	"ofmtl/internal/xrand"
)

// Fixed sizes of the benchmark. They are constants, not flags: a later
// change cannot make a number look better by turning one.
const (
	packetBatch  = 256 // headers per SendPackets / ExecuteBatchInto / clock check
	flowModBatch = 16  // commands per flow-mod batch: 8 strict deletes + 8 re-adds
	churnHalf    = flowModBatch / 2
	churnPoolMax = 4096 // rules the churn cycles through
	refSamples   = 256  // trace packets cross-checked against the priority scan
	microflow    = 1 << 16
	megaflow     = 1 << 14
	// ruleSeed generates every rule set. The rule sets are the
	// benchmark's fixed data, as the Stanford filter sets are the
	// paper's: two 1000-rule ACLs drawn from different seeds differ by
	// 8 % in lookup cost and 2 % in bits per rule, which would drown the
	// differences between commits the benchmark exists to show. --seed
	// draws the traffic and the churn order over them.
	ruleSeed = filterset.DefaultSeed
)

// sizes scales a workload's inputs; full is what the benchmark runs,
// tiny what the tests smoke.
type sizes struct {
	mac, route, churnRoute string
	lpmRules, aclRules     int
	trace, aclTrace, flows int
}

var (
	full = sizes{mac: "gozb", route: "coza", churnRoute: "yoza", lpmRules: 256000, aclRules: 1000, trace: 1 << 18, aclTrace: 1 << 16, flows: 4096}
	tiny = sizes{mac: "bbrb", route: "bozb", churnRoute: "yozb", lpmRules: 2000, aclRules: 200, trace: 1 << 11, aclTrace: 1 << 11, flows: 256}
)

// made is what a workload's constructor hands to setup, with the time
// each layer took.
type made struct {
	p                         *core.Pipeline
	trace                     []openflow.Header
	genRules, build, genTrace time.Duration
}

// workload is one traffic mix over one table set. Why each exists is
// recorded in BENCHMARK.json and the README.
type workload struct {
	name        string
	cache, mega int
	// churnEvery > 0 puts one flow-mod batch after every churnEvery
	// packet batches of the packet phases, on the same goroutine.
	churnEvery int
	make       func(seed uint64, sz sizes) (made, error)
}

var workloads = []workload{
	{name: "proto_zipf", cache: microflow, mega: megaflow, make: makeProto},
	{name: "lpm256k_uniform", cache: microflow, mega: megaflow, make: makeLPM},
	{name: "acl_nocache", make: makeACL},
	{name: "route_churn", cache: microflow, mega: megaflow, churnEvery: 64, make: makeRouteChurn},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// lap returns the time since *t and restarts it.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// makeProto is the paper's Section V.A prototype: MAC pair + routing
// pair, Zipf(1.1) over a fixed flow population per application.
func makeProto(seed uint64, sz sizes) (m made, err error) {
	t := time.Now()
	mac, err := filterset.GenerateMAC(sz.mac, ruleSeed)
	if err != nil {
		return m, err
	}
	rt, err := filterset.GenerateRoute(sz.route, ruleSeed)
	if err != nil {
		return m, err
	}
	m.genRules = lap(&t)
	if m.p, err = core.BuildPrototype(mac, rt); err != nil {
		return m, err
	}
	m.build = lap(&t)
	a := traffic.MACTraceZipf(mac, sz.flows, sz.trace/2, 0.95, 1.1, seed)
	b := traffic.RouteTraceZipf(rt, sz.flows, sz.trace/2, 0.95, 1.1, seed)
	m.trace = make([]openflow.Header, 0, sz.trace)
	for i := range a {
		m.trace = append(m.trace, a[i], b[i])
	}
	m.genTrace = lap(&t)
	return m, nil
}

// makeLPM is one ipv4-dst table of BGP-shaped prefixes on the default
// backend, with uniformly drawn destinations that never repeat inside a
// cache's lifetime.
func makeLPM(seed uint64, sz sizes) (m made, err error) {
	t := time.Now()
	f := filterset.GenerateLPM("lpm", sz.lpmRules, ruleSeed)
	entries := f.FlowEntries()
	m.genRules = lap(&t)
	m.p = core.NewPipeline()
	tab, err := m.p.AddTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Dst},
		Miss:   core.MissPolicy{Kind: core.MissController},
	})
	if err != nil {
		return m, err
	}
	for i := range entries {
		if err := tab.Insert(&entries[i]); err != nil {
			return m, fmt.Errorf("lpm rule %d: %w", i, err)
		}
	}
	m.build = lap(&t)
	m.trace = traffic.LPMTrace(f, sz.trace, 0.9, seed)
	m.genTrace = lap(&t)
	return m, nil
}

// makeACL is a 5-tuple classifier (prefix + range + exact in one table).
func makeACL(seed uint64, sz sizes) (m made, err error) {
	t := time.Now()
	f := filterset.GenerateACL("acl", sz.aclRules, ruleSeed)
	m.genRules = lap(&t)
	if m.p, err = core.BuildACL(f); err != nil {
		return m, err
	}
	m.build = lap(&t)
	m.trace = traffic.ACLTrace(f, sz.aclTrace, 0.8, seed)
	m.genTrace = lap(&t)
	return m, nil
}

// makeRouteChurn is a routing pair under SubnetZipf traffic: every
// packet a new flow, subnets skewed.
func makeRouteChurn(seed uint64, sz sizes) (m made, err error) {
	t := time.Now()
	rt, err := filterset.GenerateRoute(sz.churnRoute, ruleSeed)
	if err != nil {
		return m, err
	}
	m.genRules = lap(&t)
	if m.p, err = core.BuildRoute(rt, 0); err != nil {
		return m, err
	}
	m.build = lap(&t)
	m.trace = traffic.SubnetZipf(rt, sz.trace, 1.1, ruleSeed)
	xrand.NewNamed(seed, "bench/arrival").Shuffle(len(m.trace), func(i, j int) {
		m.trace[i], m.trace[j] = m.trace[j], m.trace[i]
	})
	m.genTrace = lap(&t)
	return m, nil
}

// verdict is what a packet must come back as: the wire reply flags and
// an index into world.outs. Pointer-free, so the expected-verdict array
// costs the collector nothing while the program is being timed.
type verdict struct {
	flags uint8
	out   uint16
}

func flagsOf(res *core.Result) uint8 {
	var f uint8
	if res.Matched {
		f |= ofproto.ReplyMatched
	}
	if res.SentToController {
		f |= ofproto.ReplyToController
	}
	if res.Dropped {
		f |= ofproto.ReplyDropped
	}
	return f
}

func sameOutputs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// world is one workload set up and ready to be driven.
type world struct {
	w     *workload
	p     *core.Pipeline
	rules int
	trace []openflow.Header
	ptrs  []*openflow.Header // &trace[i], what SendPackets takes
	want  []verdict
	outs  [][]uint32 // distinct output lists; verdict.out indexes it
	// outIndex finds an output list in outs by its ports' bytes.
	outIndex map[string]uint16
	outKey   []byte
	// winner[i] is the churn-pool index of the rule deciding packet i in
	// the churn table, or -1; kept only when packets and churn interleave.
	winner []int32
	churn  *churner

	mem             core.MemoryStats // after set-up, before any churn
	tablesVisited   float64          // mean tables walked per packet, caches off
	genRules, build time.Duration
	genTrace        time.Duration
}

// bitsPerRule is the paper's metric: modelled memory over installed rules.
func (w *world) bitsPerRule() float64 { return float64(w.mem.TotalBits) / float64(w.rules) }

// internOut returns the index of outs in w.outs, adding it if new.
func (w *world) internOut(outs []uint32) (uint16, error) {
	w.outKey = w.outKey[:0]
	for _, port := range outs {
		w.outKey = binary.LittleEndian.AppendUint32(w.outKey, port)
	}
	if i, ok := w.outIndex[string(w.outKey)]; ok {
		return i, nil
	}
	if len(w.outs) == 1<<16 {
		return 0, fmt.Errorf("more than %d distinct output lists", 1<<16)
	}
	i := uint16(len(w.outs))
	w.outs = append(w.outs, append([]uint32(nil), outs...))
	w.outIndex[string(w.outKey)] = i
	return i, nil
}

// ok reports whether packet i coming back as (flags, outs) is right.
func (w *world) ok(i int, flags uint8, outs []uint32) bool {
	v := w.want[i]
	return v.flags == flags && sameOutputs(w.outs[v.out], outs)
}

// setup does what an operator waits for before the first packet:
// generate rules and traffic, build and publish the pipeline, compute
// every packet's expected verdict with both cache tiers off, then size
// the tiers and warm them with one pass over the trace.
func setup(wl *workload, seed uint64, sz sizes) (*world, error) {
	m, err := wl.make(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if len(m.trace) == 0 || len(m.trace)%packetBatch != 0 {
		return nil, fmt.Errorf("%s: trace of %d packets is not a multiple of %d", wl.name, len(m.trace), packetBatch)
	}
	w := &world{w: wl, p: m.p, trace: m.trace, genRules: m.genRules, genTrace: m.genTrace, outIndex: map[string]uint16{}}
	t := time.Now()
	w.p.SetWorkers(1)
	w.p.SetCacheSize(0)
	w.p.SetMegaflowSize(0)
	w.p.Refresh()
	w.build = m.build + lap(&t)
	w.rules = w.p.Rules()
	w.mem = w.p.MemoryStats()

	if w.churn, err = newChurner(w.p, seed); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	churnTable, _ := w.p.Table(w.churn.table)
	if wl.churnEvery > 0 {
		w.winner = make([]int32, len(w.trace))
	}
	w.want = make([]verdict, len(w.trace))
	w.ptrs = make([]*openflow.Header, len(w.trace))
	visited := 0
	for i := range w.trace {
		w.ptrs[i] = &w.trace[i]
		h := w.trace[i]
		res := w.p.Execute(&h)
		out, err := w.internOut(res.Outputs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		w.want[i] = verdict{flags: flagsOf(&res), out: out}
		visited += len(res.TablesVisited)
		if w.winner != nil {
			// Execute left h as the churn table saw it (metadata written).
			w.winner[i] = -1
			if mr, hit := churnTable.Classify(&h); hit {
				if idx, in := w.churn.byRef[mr.Ref]; in {
					w.winner[i] = idx
				}
			}
		}
	}
	w.tablesVisited = float64(visited) / float64(len(w.trace))

	w.p.SetCacheSize(wl.cache)
	w.p.SetMegaflowSize(wl.mega)
	var h openflow.Header
	for i := range w.trace {
		h = w.trace[i]
		res := w.p.Execute(&h)
		if !w.ok(i, flagsOf(&res), res.Outputs) {
			return nil, fmt.Errorf("%s: warm-up packet %d: caches on and off disagree", wl.name, i)
		}
	}
	return w, nil
}

// churner cycles flow-mod batches through a pool of installed rules of
// the largest table: each batch strictly deletes 8 live rules and
// re-adds the 8 the previous batch deleted, so the table is never more
// than 8 rules short.
type churner struct {
	table openflow.TableID
	pool  []openflow.FlowEntry
	byRef map[uint32]int32 // installed rule's lifecycle ref -> pool index
	order []int            // seeded visiting order over the pool
	pos   int
	dead  []bool // by pool index: deleted and not yet re-added
	prev  []int  // deleted by the last committed batch
	next  []int  // deleted by the batch being built
	fms   []ofproto.FlowMod
}

func newChurner(p *core.Pipeline, seed uint64) (*churner, error) {
	c := &churner{}
	most := -1
	for _, info := range p.TableInfos() {
		if info.Rules > most {
			c.table, most = info.ID, info.Rules
		}
	}
	if most < 2*flowModBatch {
		return nil, fmt.Errorf("largest table has %d rules, churn needs %d", most, 2*flowModBatch)
	}
	rng := xrand.NewNamed(seed, "bench/churn")
	n := min(most, churnPoolMax)
	pick := make(map[int]struct{}, n)
	for _, i := range rng.Perm(most)[:n] {
		pick[i] = struct{}{}
	}
	c.byRef = make(map[uint32]int32, n)
	seen := 0
	p.VisitFlows(int(c.table), 0, 0, 0, 0, func(fs *core.FlowStats) bool {
		if _, in := pick[seen]; in {
			e := fs.Entry.Clone()
			e.Ref = 0 // controllers leave the engine's slot stamp zero
			c.byRef[fs.Ref] = int32(len(c.pool))
			c.pool = append(c.pool, *e)
		}
		seen++
		return true
	})
	if len(c.pool) != n {
		return nil, fmt.Errorf("table %d lists %d of the %d rules picked for churn", c.table, len(c.pool), n)
	}
	c.order = rng.Perm(n)
	c.dead = make([]bool, n)
	return c, nil
}

// batch builds the next flow-mod batch; commit must follow its success.
func (c *churner) batch() []ofproto.FlowMod {
	c.fms, c.next = c.fms[:0], c.next[:0]
	for i := 0; i < churnHalf; i++ {
		idx := c.order[c.pos]
		c.pos = (c.pos + 1) % len(c.order)
		e := &c.pool[idx]
		c.next = append(c.next, idx)
		c.fms = append(c.fms, ofproto.FlowMod{
			Op: ofproto.FlowDeleteStrict, Table: c.table,
			Entry: openflow.FlowEntry{Priority: e.Priority, Matches: e.Matches},
		})
	}
	c.fms = c.appendReadds(c.fms)
	return c.fms
}

// restore builds the batch that re-adds what is still deleted, leaving
// the table as setup built it; nil when nothing is.
func (c *churner) restore() []ofproto.FlowMod {
	c.next = c.next[:0]
	c.fms = c.appendReadds(c.fms[:0])
	if len(c.fms) == 0 {
		return nil
	}
	return c.fms
}

func (c *churner) appendReadds(fms []ofproto.FlowMod) []ofproto.FlowMod {
	for _, idx := range c.prev {
		fms = append(fms, ofproto.FlowMod{Op: ofproto.FlowAdd, Table: c.table, Entry: c.pool[idx]})
	}
	return fms
}

// applied reports whether the switch did what the batch asked, and if
// so moves the bookkeeping past it.
func (c *churner) applied(commands, added, deleted int) bool {
	if commands != len(c.fms) || deleted != len(c.next) || added != len(c.prev) {
		return false
	}
	for _, idx := range c.prev {
		c.dead[idx] = false
	}
	for _, idx := range c.next {
		c.dead[idx] = true
	}
	c.prev, c.next = append(c.prev[:0], c.next...), c.next[:0]
	return true
}

// commit applies a batch in-process, the way the server's flow-mod
// handler does.
func commit(p *core.Pipeline, fms []ofproto.FlowMod) (core.TxResult, error) {
	tx := p.Begin()
	for i := range fms {
		op := core.CmdAdd
		if fms[i].Op == ofproto.FlowDeleteStrict {
			op = core.CmdDeleteStrict
		}
		tx.FlowMod(core.FlowCmd{Op: op, Table: fms[i].Table, Entry: fms[i].Entry})
	}
	return tx.Commit()
}

// reference cross-checks refSamples evenly spaced expected verdicts
// against a brute-force priority scan of every installed rule, walking
// the tables the way the builders chain them, and returns a hash of the
// installed rule set. It is the oracle's oracle: the expected verdicts
// come from the program with its caches off, this from no lookup
// structure at all.
func (w *world) reference() (ruleHash uint64, err error) {
	type refTable struct {
		rc   core.ReferenceClassifier
		miss core.MissPolicy
	}
	tabs := map[openflow.TableID]*refTable{}
	ids := w.p.Tables()
	for _, id := range ids {
		t, _ := w.p.Table(id)
		tabs[id] = &refTable{miss: t.Miss()}
	}
	hash := fnv.New64a()
	var buf []byte
	w.p.VisitFlows(-1, 0, 0, 0, 0, func(fs *core.FlowStats) bool {
		tabs[fs.Table].rc.Insert(fs.Entry)
		buf = append(buf[:0], byte(fs.Table))
		buf = openflow.AppendFlowEntry(buf, fs.Entry)
		_, _ = hash.Write(buf) // hash.Hash never fails a write
		return true
	})

	scan := func(h openflow.Header) (flags uint8, outs []uint32, err error) {
		id := ids[0]
		var drop, any bool
		for {
			t := tabs[id]
			e, hit := t.rc.Classify(&h)
			if !hit {
				switch t.miss.Kind {
				case core.MissGoto:
					id = t.miss.Table
					continue
				case core.MissDrop:
					return flags | ofproto.ReplyDropped, nil, nil
				}
				return flags | ofproto.ReplyToController, nil, nil
			}
			flags |= ofproto.ReplyMatched
			next, chained := openflow.TableID(0), false
			for _, in := range e.Instructions {
				switch in.Type {
				case openflow.InstrGotoTable:
					next, chained = in.Table, true
				case openflow.InstrWriteMetadata:
					h.Metadata = h.Metadata&^in.MetadataMask | in.Metadata&in.MetadataMask
				case openflow.InstrWriteActions:
					for _, a := range in.Actions {
						switch a.Type {
						case openflow.ActionOutput:
							outs, drop, any = []uint32{a.Port}, false, true
						case openflow.ActionDrop:
							outs, drop, any = nil, true, true
						default:
							return 0, nil, fmt.Errorf("reference scan does not model action %s", a.Type)
						}
					}
				default:
					return 0, nil, fmt.Errorf("reference scan does not model instruction %s", in.Type)
				}
			}
			if !chained {
				break
			}
			id = next
		}
		if drop || !any {
			flags |= ofproto.ReplyDropped
		}
		return flags, outs, nil
	}

	stride := max(1, len(w.trace)/refSamples)
	for i := 0; i < len(w.trace); i += stride {
		flags, outs, err := scan(w.trace[i])
		if err != nil {
			return 0, err
		}
		if !w.ok(i, flags, outs) {
			return 0, fmt.Errorf("packet %d: priority scan says flags=%#x outputs=%v, pipeline said flags=%#x outputs=%v",
				i, flags, outs, w.want[i].flags, w.outs[w.want[i].out])
		}
	}
	return hash.Sum64(), nil
}

// traceHash fingerprints the generated traffic.
func (w *world) traceHash() uint64 {
	hash := fnv.New64a()
	var buf []byte
	for i := range w.trace {
		buf = openflow.AppendHeader(buf[:0], &w.trace[i])
		_, _ = hash.Write(buf)
	}
	return hash.Sum64()
}
