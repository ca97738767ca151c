package core_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmtl/internal/bitops"
	. "ofmtl/internal/core"
	"ofmtl/internal/core/autotune"
	"ofmtl/internal/cow"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// The op-sequence driver: one seeded random sequence of control- and
// data-plane operations applied to a Pipeline and to the executable
// model (model_test.go) side by side, with the pipeline checked against
// the model after every operation. It runs under every configuration
// switchd's flags reach — default backend × microflow tier × megaflow
// tier × batch workers — and replaces the per-subsystem differential
// suites: one generator, one reference. In wire mode the same sequence
// drives the pipeline the way a controller does, through an ofproto
// server on loopback, and every reply is checked against the model too.
//
// A failure names the configuration, the seed and the operation index;
// `go test -run 'TestPipelineModel/mbt-micro-mega-w4' ./internal/core`
// replays exactly that sequence (seeds are fixed per configuration), and
// a failing FuzzPipelineModel input, saved under testdata/fuzz, replays
// with `go test -run 'FuzzPipelineModel/<name>' ./internal/core`.

// modelSteps is the sequence length per configuration of the sweep,
// legSteps per configuration of a named leg.
const (
	modelSteps = 150
	legSteps   = 100
)

// modelConfig is one point of the configuration sweep.
type modelConfig struct {
	backend     string // the pipeline's default backend (SetDefaultBackend)
	micro, mega int    // cache tier sizes; 0 = tier off
	workers     int    // ExecuteBatch fan-out
	wire        bool   // commits, packets and group mods go through an ofproto.Server
}

func (c modelConfig) String() string {
	tiers := [2][2]string{{"nocache", "mega"}, {"micro", "micro-mega"}}
	s := fmt.Sprintf("%s-%s-w%d", c.backend, tiers[min(c.micro, 1)][min(c.mega, 1)], c.workers)
	if c.wire {
		s += "-wire"
	}
	return s
}

// singleShard reports whether every packet counts on lifecycle shard 0 —
// uncached single-packet lookups and one-worker batches — so the
// last-seen second is the clock at the flow's most recent packet even
// when the clock steps back. (With several shards it is the newest of
// each shard's last packet, which the model does not track.)
func (c modelConfig) singleShard() bool { return c.micro == 0 && c.mega == 0 && c.workers == 1 }

// modelConfigs is the sweep: every backend selectable as a default
// (dir24 serves the prefix-shaped table and the others fall back to
// mbt, as switchd -backend dir24 does), each tier on and off, one and
// four batch workers.
func modelConfigs() []modelConfig {
	var out []modelConfig
	for _, b := range []string{BackendMBT, BackendTSS, BackendLinearTCAM, BackendDIR24, BackendAuto} {
		for _, micro := range []int{0, 1024} {
			for _, mega := range []int{0, 256} {
				for _, w := range []int{1, 4} {
					out = append(out, modelConfig{backend: b, micro: micro, mega: mega, workers: w})
				}
			}
		}
	}
	return out
}

// wireConfigs is the wire leg: each default backend once, with the cache
// tiers and worker counts spread across them.
func wireConfigs() []modelConfig {
	return []modelConfig{
		{backend: BackendMBT, micro: 1024, mega: 256, workers: 4, wire: true},
		{backend: BackendTSS, workers: 1, wire: true},
		{backend: BackendLinearTCAM, mega: 256, workers: 4, wire: true},
		{backend: BackendDIR24, micro: 1024, workers: 1, wire: true},
		{backend: BackendAuto, mega: 256, workers: 1, wire: true},
	}
}

// The mixed layout: an ingress table that writes metadata, rewrites the
// destination or jumps ahead; a destination-prefix table (the shape
// dir24 serves, with /25–/32 spill prefixes); a 5-tuple ACL with prefix,
// range and exact fields that also matches and rewrites metadata, so a
// walk can write it twice and match it between the writes; and a
// metadata + prefix routing table. Misses fall through, go to the
// controller or drop.
var mixedLayout = []TableConfig{
	{ID: 0, Fields: []openflow.FieldID{openflow.FieldInPort, openflow.FieldVLANID}, Miss: MissPolicy{Kind: MissGoto, Table: 1}},
	{ID: 1, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Miss: MissPolicy{Kind: MissGoto, Table: 2}},
	{ID: 2, Fields: []openflow.FieldID{openflow.FieldIPv4Src, openflow.FieldIPv4Dst, openflow.FieldSrcPort, openflow.FieldDstPort, openflow.FieldIPProto, openflow.FieldMetadata}},
	{ID: 3, Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldIPv4Dst}, Miss: MissPolicy{Kind: MissDrop}},
}

// modelDriver runs one sequence.
type modelDriver struct {
	t    testing.TB
	cfg  modelConfig
	seed uint64
	rng  *xrand.Source
	p    *Pipeline
	m    *pipelineModel

	// Wire mode: the server in front of p, its address, the controller's
	// connection, and the flow-removed records pushed to it, keyed.
	srv     *ofproto.Server
	srvAddr string
	c       *ofproto.Client
	pushed  []string

	// entry draws a fresh flow entry for a table.
	entry func(id openflow.TableID) *openflow.FlowEntry

	history []openflow.Header // recent packets, re-sent across commits
	removed uint64            // FlowRemovedSince cursor
	op      int               // operations applied, for failure messages
	opName  string            // the operation being checked
	faults  bool              // the failpoint leg: fault operations enabled
	// recounted is each table's generation at its last recount.
	recounted map[openflow.TableID]uint64
	res       []Result
}

func newModelDriver(t testing.TB, cfg modelConfig, layout []TableConfig, seed uint64) *modelDriver {
	t.Helper()
	p := NewPipeline()
	if err := p.SetDefaultBackend(cfg.backend); err != nil {
		t.Fatal(err)
	}
	if cfg.backend == BackendAuto {
		p.SetAutotunePolicy(autotune.Policy{}) // migrate whenever a scheme scores better
	}
	for _, c := range layout {
		if _, err := p.AddTable(c); err != nil {
			t.Fatal(err)
		}
	}
	p.SetCacheSize(cfg.micro)
	p.SetMegaflowSize(cfg.mega)
	p.SetWorkers(cfg.workers)
	d := &modelDriver{t: t, cfg: cfg, seed: seed, rng: xrand.New(seed), p: p, m: newPipelineModel(layout, p.LifecycleClock()), recounted: map[openflow.TableID]uint64{}}
	d.entry = d.mixedEntry
	for id := uint32(1); id <= 2; id++ {
		g := Group{ID: id, Type: GroupAll, Buckets: []Bucket{{Actions: []openflow.Action{openflow.Output(10 + id)}}}}
		if err := p.AddGroup(g); err != nil || !d.m.groupMod(0, g) {
			t.Fatalf("seeding group %d: %v", id, err)
		}
	}
	if cfg.wire {
		d.serve()
	}
	return d
}

// serve puts the pipeline behind a new server on loopback and connects
// the controller to it.
func (d *modelDriver) serve() {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.t.Fatal(err)
	}
	srv := ofproto.NewServer(d.p, nil)
	go srv.Serve(l)
	d.t.Cleanup(func() { srv.Close() })
	d.srv, d.srvAddr = srv, l.Addr().String()
	d.dial()
}

// dial (re)connects the controller, subscribed to flow-removed records.
// A subscription starts at the ring's head: records queued while the
// controller was away are not replayed to it.
func (d *modelDriver) dial() {
	if d.c != nil {
		d.c.Close()
	}
	c, err := ofproto.Dial(d.srvAddr)
	if err != nil {
		d.fatalf("dial: %v", err)
	}
	c.OnFlowRemoved = func(recs []ofproto.FlowRemovedMsg) {
		for _, r := range recs {
			d.pushed = append(d.pushed, removedKey(FlowRemoved{Table: openflow.TableID(r.Table), Reason: r.Reason,
				DurationSec: r.DurationSec, Packets: r.Packets, Bytes: r.Bytes, Entry: &r.Entry}))
		}
	}
	if err := c.SubscribeFlowRemoved(true); err != nil {
		d.fatalf("subscribe: %v", err)
	}
	d.c = c
}

func (d *modelDriver) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%s seed %d op %d (%s): %s", d.cfg, d.seed, d.op, d.opName, fmt.Sprintf(format, args...))
}

// Operations, with their weights in a random sequence.
const (
	opCommit = iota
	opPackets
	opTime
	opGroup
	opBudget
	opAutotune
	opRacedCommit
	opConcurrent
	opClockBack
	opFault
	numOps
)

var (
	opWeights   = [numOps]int{28, 28, 10, 6, 5, 4, 5, 5, 3, 6}
	totalWeight = 100 // the sum of opWeights
	opNames     = [numOps]string{"commit", "packets", "time", "group mod", "budget commit", "autotune", "raced commit", "concurrent packets", "clock back", "fault"}
)

// run applies n random operations.
func (d *modelDriver) run(n int) {
	for i := 0; i < n; i++ {
		d.step(d.rng.Intn(totalWeight))
	}
}

// step applies the operation choice selects (weighted, modulo the total
// weight) and checks the pipeline against the model.
func (d *modelDriver) step(choice int) {
	d.op++
	op := 0
	for choice %= totalWeight; choice >= opWeights[op]; op++ {
		choice -= opWeights[op]
	}
	if op == opClockBack && !d.cfg.singleShard() || op == opFault && !d.faults {
		op = opPackets
	}
	d.opName = opNames[op]
	switch op {
	case opCommit:
		d.commit(d.randomCmds(), nil)
	case opPackets:
		d.packets(d.headers(1+d.rng.Intn(64)), d.rng.Intn(2) == 0)
	case opTime:
		d.advance()
	case opGroup:
		d.groupMod()
	case opBudget:
		d.budgetCommit()
	case opAutotune:
		d.p.AutotuneOnce()
	case opRacedCommit:
		d.racedCommit()
	case opConcurrent:
		d.concurrentPackets(nil)
	case opClockBack:
		d.clockBack()
	case opFault:
		d.fault()
	}
	d.checkState()
}

// --- Generators --------------------------------------------------------

// addr draws an IPv4 address, mostly from a few /24s so prefixes nest,
// share trie nodes and spill chunks, and packets hit them.
func (d *modelDriver) addr() uint64 {
	if d.rng.Intn(8) == 0 {
		return uint64(d.rng.Uint32())
	}
	return 0x0A000000 | uint64(d.rng.Intn(4))<<16 | uint64(d.rng.Intn(4))<<8 | uint64(d.rng.Intn(256))
}

func (d *modelDriver) prefix(f openflow.FieldID, lens ...int) openflow.Match {
	plen := lens[d.rng.Intn(len(lens))]
	return openflow.Prefix(f, d.addr()&bitops.Mask64(plen, 32), plen)
}

func (d *modelDriver) port() uint64 {
	return []uint64{0, 22, 53, 80, 443, 1024, 8080, uint64(d.rng.Intn(65536))}[d.rng.Intn(8)]
}

// action draws an action-set action: mostly an output, sometimes a drop,
// a group (which may not exist: the commit is then rejected) or the
// controller.
func (d *modelDriver) action() openflow.Action {
	switch r := d.rng.Intn(20); {
	case r < 14:
		return openflow.Output(uint32(1 + d.rng.Intn(8)))
	case r < 16:
		return openflow.Drop()
	case r < 18:
		return openflow.Group(uint32(1 + d.rng.Intn(4)))
	default:
		return openflow.Output(openflow.ControllerPort)
	}
}

func clearActions() openflow.Instruction {
	return openflow.Instruction{Type: openflow.InstrClearActions}
}

// mixedEntry draws an entry for a mixedLayout table, with a cookie and,
// sometimes, idle and hard timeouts.
func (d *modelDriver) mixedEntry(id openflow.TableID) *openflow.FlowEntry {
	r := d.rng
	e := &openflow.FlowEntry{Priority: 1 + r.Intn(6), Cookie: uint64(r.Intn(8))}
	var fwd openflow.Instruction // a goto ahead; from table 0 sometimes to a table that does not exist
	if id < 3 {
		fwd = openflow.GotoTable(id + 1 + openflow.TableID(r.Intn(4-int(id))))
	}
	switch id {
	case 0:
		if r.Intn(5) > 0 {
			e.Matches = append(e.Matches, openflow.Exact(openflow.FieldInPort, uint64(1+r.Intn(6))))
		}
		if r.Intn(2) == 0 {
			e.Matches = append(e.Matches, openflow.Exact(openflow.FieldVLANID, uint64(1+r.Intn(4))))
		}
		meta := openflow.WriteMetadata(uint64(1+r.Intn(6)), 0xFF)
		e.Instructions = [][]openflow.Instruction{
			{meta, fwd},
			{openflow.ApplyActions(openflow.SetField(openflow.FieldIPv4Dst, d.addr())), meta, fwd},
			{openflow.WriteActions(d.action()), meta, fwd},
			{clearActions(), fwd},
			{openflow.WriteActions(d.action())},
		}[r.Intn(5)]
	case 1:
		e.Matches = []openflow.Match{d.prefix(openflow.FieldIPv4Dst, 8, 12, 16, 20, 24, 25, 26, 28, 30, 32)}
		if r.Intn(2) == 0 {
			e.Priority = e.Matches[0].PrefixLen // longest prefix wins
		}
		e.Instructions = [][]openflow.Instruction{
			{openflow.WriteActions(d.action())},
			{openflow.WriteActions(d.action()), fwd},
			{openflow.ApplyActions(openflow.Output(uint32(1 + r.Intn(8))))},
			{fwd},
		}[r.Intn(4)]
	case 2:
		// A second metadata write, over the low bits of table 0's.
		meta := openflow.WriteMetadata(uint64(r.Intn(16)), 0x0F)
		if r.Intn(3) == 0 {
			// A metadata stage: it matches the metadata table 0 wrote (or
			// the packet's own) and little else, and rewrites it.
			e.Matches = append(e.Matches, openflow.Exact(openflow.FieldMetadata, uint64(1+r.Intn(6))))
			if r.Intn(2) == 0 {
				e.Matches = append(e.Matches, openflow.Exact(openflow.FieldIPProto, []uint64{1, 6, 17}[r.Intn(3)]))
			}
			e.Instructions = [][]openflow.Instruction{
				{meta, openflow.GotoTable(3)},
				{openflow.WriteActions(d.action()), meta, openflow.GotoTable(3)},
				{openflow.WriteActions(d.action()), openflow.GotoTable(3)},
			}[r.Intn(3)]
			break
		}
		if r.Intn(5) < 3 {
			e.Matches = append(e.Matches, d.prefix(openflow.FieldIPv4Src, 0, 8, 16, 24, 32))
		}
		if r.Intn(5) < 3 {
			e.Matches = append(e.Matches, d.prefix(openflow.FieldIPv4Dst, 8, 16, 24, 32))
		}
		if r.Intn(2) == 0 {
			lo := d.port()
			e.Matches = append(e.Matches, openflow.Range(openflow.FieldDstPort, lo, min(lo+[]uint64{0, 20, 1000, 30000}[r.Intn(4)], 65535)))
		}
		if r.Intn(10) < 3 {
			p := d.port()
			e.Matches = append(e.Matches, openflow.Range(openflow.FieldSrcPort, p, p))
		}
		if r.Intn(2) == 0 {
			e.Matches = append(e.Matches, openflow.Exact(openflow.FieldIPProto, []uint64{1, 6, 17}[r.Intn(3)]))
		}
		e.Instructions = [][]openflow.Instruction{
			{openflow.WriteActions(d.action())},
			{openflow.WriteActions(d.action())},
			{openflow.WriteActions(d.action()), fwd},
			{openflow.ApplyActions(openflow.SetField(openflow.FieldIPv4Dst, d.addr())), fwd},
			{clearActions()},
			{openflow.WriteActions(d.action()), meta, fwd},
		}[r.Intn(6)]
	default:
		if r.Intn(5) > 0 {
			e.Matches = append(e.Matches, openflow.Exact(openflow.FieldMetadata, uint64(1+r.Intn(6))))
		}
		if r.Intn(5) > 0 {
			e.Matches = append(e.Matches, d.prefix(openflow.FieldIPv4Dst, 0, 8, 16, 24, 32))
		}
		e.Instructions = []openflow.Instruction{openflow.WriteActions(d.action())}
	}
	if r.Intn(10) == 0 {
		e.IdleTimeout = uint16(1 + r.Intn(4))
	}
	if r.Intn(10) == 0 {
		e.HardTimeout = uint16(2 + r.Intn(6))
	}
	return e
}

// liveRule picks a random installed rule of the table (nil if empty).
func (d *modelDriver) liveRule(id openflow.TableID) *openflow.FlowEntry {
	rules := d.m.tables[id].rules
	if len(rules) == 0 {
		return nil
	}
	e := rules[d.rng.Intn(len(rules))].e
	e.Ref = 0
	return &e
}

// anyLiveRule picks a random installed rule of any table.
func (d *modelDriver) anyLiveRule() *openflow.FlowEntry {
	id := d.m.order[d.rng.Intn(len(d.m.order))]
	return d.liveRule(id)
}

// widen drops each match with probability 0.3: a selector subsuming the
// rule it came from and, often, others.
func (d *modelDriver) widen(ms []openflow.Match) []openflow.Match {
	var out []openflow.Match
	for _, m := range ms {
		if d.rng.Intn(10) >= 3 {
			out = append(out, m)
		}
	}
	return out
}

// randomCmds draws one transaction: mostly adds (some replacing a live
// rule), then non-strict modifies and deletes with widened selectors and
// cookie filters, strict deletes, exact removes and — rarely — a command
// the pipeline must reject, rejecting the whole transaction.
func (d *modelDriver) randomCmds() []FlowCmd {
	r := d.rng
	var cmds []FlowCmd
	for n := 1 + r.Intn(6); len(cmds) < n; {
		id := d.m.order[r.Intn(len(d.m.order))]
		live := d.liveRule(id)
		full := len(d.m.tables[id].rules) >= 40
		switch k := r.Intn(100); {
		case live == nil || k < 60 && !full:
			e := d.entry(id)
			if live != nil && r.Intn(5) == 0 {
				e.Priority, e.Matches = live.Priority, live.Matches // add-replace
			}
			cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: id, Entry: *e})
		case k < 70:
			cmd := FlowCmd{Op: CmdModify, Table: id, Entry: openflow.FlowEntry{Matches: d.widen(live.Matches), Instructions: d.entry(id).Instructions}}
			if r.Intn(3) == 0 {
				cmd.Entry.Cookie, cmd.CookieMask = uint64(r.Intn(8)), 7
			}
			cmds = append(cmds, cmd)
		case k < 80:
			cmd := FlowCmd{Op: CmdDelete, Table: id, Entry: openflow.FlowEntry{Matches: d.widen(live.Matches)}}
			if r.Intn(5) == 0 {
				cmd.Entry.Matches, cmd.Entry.Cookie, cmd.CookieMask = nil, uint64(r.Intn(8)), 7 // cookie sweep
			}
			if len(cmd.Entry.Matches) == 0 && cmd.CookieMask == 0 && r.Intn(4) > 0 {
				continue // a table flush: keep them rare
			}
			cmds = append(cmds, cmd)
		case k < 92:
			cmd := FlowCmd{Op: CmdDeleteStrict, Table: id, Entry: openflow.FlowEntry{Priority: live.Priority, Matches: live.Matches}}
			if r.Intn(3) == 0 {
				cmd.Entry.Cookie, cmd.CookieMask = uint64(r.Intn(8)), 7
			}
			cmds = append(cmds, cmd)
		case k < 98:
			if r.Intn(4) == 0 {
				live.Instructions = d.entry(id).Instructions // no such entry: rejected
			}
			cmds = append(cmds, FlowCmd{Op: CmdRemoveExact, Table: id, Entry: *live})
		default:
			bad := d.entry(id)
			switch r.Intn(3) {
			case 0:
				cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: 9, Entry: *bad})
			case 1:
				bad.Matches = append(bad.Matches, openflow.Exact(openflow.FieldEthType, 0x0806)) // a field no table searches
				cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: id, Entry: *bad})
			default:
				bad.Matches = []openflow.Match{openflow.Range(d.m.tables[id].cfg.Fields[0], 1, 2)} // a range on a prefix or exact field
				if bad.Matches[0].Field == openflow.FieldSrcPort {
					bad.Matches[0] = openflow.Prefix(openflow.FieldSrcPort, 0, 8)
				}
				cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: id, Entry: *bad})
			}
		}
	}
	return cmds
}

// headers draws n packets: a third re-sent from the recent history (a
// cache entry that outlived a commit it should not have answers them
// wrongly), the rest fresh, most placed inside one or two live rules'
// covers.
func (d *modelDriver) headers(n int) []openflow.Header {
	r := d.rng
	hs := make([]openflow.Header, n)
	for i := range hs {
		if len(d.history) > 0 && r.Intn(3) == 0 {
			hs[i] = d.history[r.Intn(len(d.history))]
			continue
		}
		h := openflow.Header{
			InPort: uint32(1 + r.Intn(6)), VLANID: uint16(1 + r.Intn(4)), EthType: 0x0800,
			IPv4Src: uint32(d.addr()), IPv4Dst: uint32(d.addr()),
			SrcPort: uint16(d.port()), DstPort: uint16(d.port()),
			IPProto: []uint8{1, 6, 17}[r.Intn(3)], PktLen: uint32(r.Intn(1500)),
			Metadata: uint64(r.Intn(7)),
		}
		for k := r.Intn(3); k > 0; k-- {
			if e := d.anyLiveRule(); e != nil {
				d.cover(&h, e)
			}
		}
		hs[i] = h
		if len(d.history) < 256 {
			d.history = append(d.history, h)
		} else {
			d.history[r.Intn(len(d.history))] = h
		}
	}
	return hs
}

// cover moves the header inside the entry's matches.
func (d *modelDriver) cover(h *openflow.Header, e *openflow.FlowEntry) {
	for _, m := range e.Matches {
		var v uint64
		switch m.Kind {
		case openflow.MatchExact:
			v = m.Value.Lo
		case openflow.MatchPrefix:
			mask := bitops.Mask64(m.PrefixLen, m.Field.Bits())
			v = m.Value.Lo&mask | d.rng.Uint64()&bitops.LowMask64(m.Field.Bits())&^mask
		case openflow.MatchRange:
			v = m.Lo + d.rng.Uint64()%(m.Hi-m.Lo+1)
		default:
			continue
		}
		h.Set(m.Field, bitops.U128From64(v))
	}
}

// --- Operations ----------------------------------------------------------

// commit applies a transaction to both sides. The pipeline must commit
// with the model's counts, or reject it exactly when the model does (on
// the wire, as a bad request); expected(err), when set, admits a
// rejection the model cannot foresee (budget, injected fault). After any
// rejection the pipeline must still equal the pre-commit model, and its
// memory report the pre-commit one.
func (d *modelDriver) commit(cmds []FlowCmd, expected func(error) bool) {
	d.commitVia(cmds, expected, d.send)
}

// commitVia is commit with the transaction sent by send.
func (d *modelDriver) commitVia(cmds []FlowCmd, expected func(error) bool, send func([]FlowCmd) ([5]int, error)) {
	next, want, ok := d.m.apply(cmds)
	var pre *memmodel.SystemReport
	if !ok || expected != nil {
		pre = d.p.MemoryReport() // a rejection must leave it as it is
	}
	counts, err := send(cmds)
	switch {
	case err != nil && (!ok && (d.c == nil || badRequest(err)) || expected != nil && expected(err)):
		d.m.rejected++
		d.sameMemory(pre, "rejected commit")
	case err != nil:
		d.fatalf("commit of %v rejected: %v", cmds, err)
	case !ok:
		d.fatalf("commit of %v accepted; the model rejects it", cmds)
	case counts != want:
		d.fatalf("commit of %v: counts %v, model %v", cmds, counts, want)
	default:
		d.m = next
	}
}

// send commits a transaction through the pipeline, or as one flow-mod
// batch through the switch in wire mode.
func (d *modelDriver) send(cmds []FlowCmd) ([5]int, error) {
	if d.c != nil {
		return replyCounts(d.c.SendFlowMods(flowMods(cmds)))
	}
	tx := d.p.Begin()
	for _, c := range cmds {
		tx.FlowMod(c)
	}
	res, err := tx.Commit()
	if err != nil {
		return [5]int{}, err
	}
	return res.Counts(), nil
}

// settle applies, in the model, a transaction the switch applied but
// whose reply was lost.
func (d *modelDriver) settle(cmds []FlowCmd) {
	if next, _, ok := d.m.apply(cmds); ok {
		d.m = next
	} else {
		d.m.rejected++
	}
}

var wireOps = map[FlowCmdOp]ofproto.FlowModOp{
	CmdAdd: ofproto.FlowAdd, CmdModify: ofproto.FlowModify, CmdDelete: ofproto.FlowDelete,
	CmdDeleteStrict: ofproto.FlowDeleteStrict, CmdRemoveExact: ofproto.FlowRemoveExact,
}

func flowMods(cmds []FlowCmd) []ofproto.FlowMod {
	fms := make([]ofproto.FlowMod, len(cmds))
	for i, c := range cmds {
		fms[i] = ofproto.FlowMod{Op: wireOps[c.Op], Table: c.Table, CookieMask: c.CookieMask, Entry: c.Entry}
	}
	return fms
}

func replyCounts(r *ofproto.FlowModBatchReply, err error) ([5]int, error) {
	if err != nil {
		return [5]int{}, err
	}
	return [5]int{int(r.Commands), int(r.Added), int(r.Replaced), int(r.Modified), int(r.Deleted)}, nil
}

// The rejections as the controller sees them: the model's are bad
// requests on the wire; a budget's is TABLE_FULL; an injected fault's
// is a bad request carrying the fault.
func badRequest(err error) bool {
	var se *ofproto.SwitchError
	return errors.As(err, &se) && se.Type == ofproto.ErrTypeBadRequest
}

func budgetRejection(err error) bool {
	var be *BudgetError
	return errors.As(err, &be) || ofproto.IsTableFull(err)
}

func injectedFault(err error) bool {
	return errors.Is(err, failpoint.ErrInjected) || badRequest(err) && strings.Contains(err.Error(), failpoint.ErrInjected.Error())
}

// sameMemory checks that the pipeline's memory report is still pre,
// component by component.
func (d *modelDriver) sameMemory(pre *memmodel.SystemReport, what string) {
	d.t.Helper()
	if post := d.p.MemoryReport(); !reflect.DeepEqual(post, pre) {
		d.fatalf("%s moved the memory account:\n%s\n%v\n->\n%s\n%v", what, pre, pre.Components, post, post.Components)
	}
}

// packets sends headers one by one or as one batch and checks every
// verdict.
func (d *modelDriver) packets(hs []openflow.Header, single bool) {
	d.execute(hs, single)
	for i, h := range hs {
		want, hit := d.m.walk(h)
		if !SameResult(d.res[i], d.seen(want)) {
			d.fatalf("packet %d %v: pipeline %+v, model %+v", i, &h, d.res[i], want)
		}
		d.m.count(hit, h.PktLen)
	}
}

// execute classifies the headers into d.res: through Execute one by one
// or one ExecuteBatchInto, or in wire mode through SendPacket or one
// SendPackets.
func (d *modelDriver) execute(hs []openflow.Header, single bool) {
	in := slices.Clone(hs)
	ptrs := make([]*openflow.Header, len(in))
	for i := range in {
		ptrs[i] = &in[i]
	}
	d.res = d.res[:0]
	switch {
	case d.c != nil && single:
		for _, h := range ptrs {
			r, err := d.c.SendPacket(h)
			if err != nil {
				d.fatalf("packet: %v", err)
			}
			d.res = append(d.res, verdict(r))
		}
	case d.c != nil && len(ptrs) > 0:
		rs, err := d.c.SendPackets(ptrs)
		if err != nil {
			d.fatalf("packets: %v", err)
		}
		for i := range rs {
			d.res = append(d.res, verdict(&rs[i]))
		}
	case single:
		for _, h := range ptrs {
			d.res = append(d.res, d.p.Execute(h))
		}
	default:
		d.res = d.p.ExecuteBatchInto(ptrs, d.res)
	}
}

// verdict is the result a packet reply carries; seen is the part of the
// model's result a reply can carry in wire mode.
func verdict(r *ofproto.PacketReply) Result {
	return Result{Matched: r.Flags&ofproto.ReplyMatched != 0, SentToController: r.Flags&ofproto.ReplyToController != 0,
		Dropped: r.Flags&ofproto.ReplyDropped != 0, Outputs: slices.Clone(r.Outputs)}
}

func (d *modelDriver) seen(r Result) Result {
	if d.c == nil {
		return r
	}
	return Result{Matched: r.Matched, SentToController: r.SentToController, Dropped: r.Dropped, Outputs: r.Outputs}
}

// advance moves the clock forward 1–3 seconds, sweeping expired flows
// or, sometimes, only moving time.
func (d *modelDriver) advance() {
	now := d.m.clock + int64(1+d.rng.Intn(3))
	if d.rng.Intn(4) == 0 {
		d.setClock(now)
		return
	}
	d.sweep(now)
}

// sweep expires flows at now, checking every flow-removed record.
func (d *modelDriver) sweep(now int64) {
	next, want := d.m.sweep(now)
	n, err := d.p.SweepExpired(now)
	if err != nil {
		d.fatalf("sweep at %d: %v", now, err)
	}
	got := d.drainRemoved()
	if n != len(want) || !slices.Equal(got, removedKeys(want)) {
		d.fatalf("sweep at %d removed %d flows:\n%v\nthe model expires %d:\n%v", now, n, got, len(want), removedKeys(want))
	}
	d.m = next
}

// drainRemoved reads the pipeline's new flow-removed records; in wire
// mode the subscribed controller must receive the same ones ahead of its
// next reply.
func (d *modelDriver) drainRemoved() []string {
	recs, next, dropped := d.p.FlowRemovedSince(d.removed)
	if dropped != 0 {
		d.fatalf("%d flow-removed records dropped", dropped)
	}
	d.removed = next
	got := removedKeys(recs)
	if d.c != nil {
		if err := d.c.Barrier(); err != nil {
			d.fatalf("barrier: %v", err)
		}
		sort.Strings(d.pushed)
		if !slices.Equal(d.pushed, got) {
			d.fatalf("the controller received flow-removed records\n%v\nthe pipeline queued\n%v", d.pushed, got)
		}
		d.pushed = d.pushed[:0]
	}
	return got
}

func removedKeys(recs []FlowRemoved) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = removedKey(r)
	}
	sort.Strings(out)
	return out
}

func removedKey(r FlowRemoved) string {
	return fmt.Sprintf("%s cookie=%d reason=%d dur=%d pkts=%d bytes=%d",
		ruleKey(r.Table, r.Entry), r.Entry.Cookie, r.Reason, r.DurationSec, r.Packets, r.Bytes)
}

// groupMod adds, modifies or deletes a group — sometimes an ill-formed
// one, a duplicate, a missing one or one flows still reference.
func (d *modelDriver) groupMod() {
	r := d.rng
	g := Group{ID: uint32(1 + r.Intn(4)), Type: GroupAll}
	nb := 1 + r.Intn(3)
	if r.Intn(2) == 0 {
		g.Type, nb = GroupIndirect, 1+r.Intn(8)/7
	}
	for i := 0; i < nb; i++ {
		var b Bucket
		for k := 1 + r.Intn(2); k > 0; k-- {
			b.Actions = append(b.Actions, []openflow.Action{
				openflow.Output(uint32(10 + r.Intn(4))), openflow.Output(uint32(10 + r.Intn(4))),
				openflow.Output(openflow.ControllerPort), openflow.Drop(),
				openflow.SetField(openflow.FieldIPv4Src, d.addr()), openflow.Group(1),
			}[r.Intn(6)])
		}
		g.Buckets = append(g.Buckets, b)
	}
	op := r.Intn(3)
	if op == 2 && g.ID <= 2 {
		op = 1 // groups 1 and 2 stay; 3 and 4 come and go
	}
	ok := d.m.groupMod(op, g)
	var err error
	switch {
	case d.c != nil:
		gm := &ofproto.GroupMod{Op: ofproto.GroupModAdd + ofproto.GroupModOp(op), ID: g.ID, Type: g.Type}
		for _, b := range g.Buckets {
			gm.Buckets = append(gm.Buckets, b.Actions)
		}
		if err = d.c.SendGroupMod(gm); err != nil && !badRequest(err) {
			d.fatalf("group mod: %v", err)
		}
	case op == 0:
		err = d.p.AddGroup(g)
	case op == 1:
		err = d.p.ModifyGroup(g)
	default:
		err = d.p.DeleteGroup(g.ID)
	}
	if ok != (err == nil) {
		d.fatalf("group mod %d of %+v: err %v, model accepts %v", op, g, err, ok)
	}
}

// budgetCommit arms a budget at the current usage — the process's or one
// table's — and commits adds: a rejection must leave the pipeline equal
// to the pre-commit model with an identical memory report, and usage
// must stay within the budget, which every view (the pipeline's and, in
// wire mode, the switch's report) must show as armed.
func (d *modelDriver) budgetCommit() {
	id := d.m.order[d.rng.Intn(len(d.m.order))]
	process := d.rng.Intn(2) == 0
	usage := func(ms MemoryStats) (used, budget uint64) {
		if process {
			return ms.TotalBits, ms.BudgetBits
		}
		i := slices.IndexFunc(ms.Tables, func(tm TableMemory) bool { return tm.Table == id })
		return ms.Tables[i].TotalBits(), ms.Tables[i].BudgetBits
	}
	armed, _ := usage(d.p.MemoryStats())
	if process {
		d.p.SetMemoryBudget(armed)
	} else if err := d.p.SetTableBudget(id, armed); err != nil {
		d.fatalf("%v", err)
	}
	var cmds []FlowCmd
	for n := 1 + d.rng.Intn(4); n > 0; n-- {
		cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: id, Entry: *d.entry(id)})
	}
	d.commit(cmds, budgetRejection)
	views := []MemoryStats{d.p.MemoryStats()}
	if d.c != nil {
		views = append(views, d.stats().Memory)
	}
	for _, ms := range views {
		if used, budget := usage(ms); budget != armed || armed > 0 && used > armed { // 0 is no budget
			d.fatalf("budget armed at %d bits; a view reports %d bits used of %d", armed, used, budget)
		}
	}
	d.p.SetMemoryBudget(0)
	if err := d.p.SetTableBudget(id, 0); err != nil {
		d.fatalf("%v", err)
	}
}

func (d *modelDriver) stats() *ofproto.Stats {
	st, err := d.c.Stats()
	if err != nil {
		d.fatalf("stats: %v", err)
	}
	return st
}

// racedCommit commits a random transaction while readers run Execute
// and ExecuteBatchInto: every single-packet verdict must be the pre- or
// the post-commit model's, and every batch must be one of the two for
// all its packets. A commit frees the counter slots of the rules it
// removes only once it is final, so every packet's count lands on a rule
// the model can name: the probes are the packets whose pre- and
// post-commit walks match the same rules, or whose verdicts tell the two
// states apart.
func (d *modelDriver) racedCommit() {
	cmds := d.randomCmds()
	pre := d.m
	post, _, ok := pre.apply(cmds)
	if !ok {
		post = pre
	}
	type probe struct {
		h                 openflow.Header
		preRes, postRes   Result
		preHits, postHits []uint32
	}
	var probes []probe
	for _, h := range d.headers(48) {
		pr := probe{h: h}
		var hit []*modelRule
		pr.preRes, hit = pre.walk(h)
		pr.preHits = ruleIDs(hit)
		pr.postRes, hit = post.walk(h)
		pr.postHits = ruleIDs(hit)
		if slices.Equal(pr.preHits, pr.postHits) || !SameResult(pr.preRes, pr.postRes) {
			probes = append(probes, pr)
		}
	}
	if len(probes) == 0 {
		d.commit(cmds, nil)
		return
	}
	// seen records, per reader packet, the probe and the state it saw.
	type seen struct {
		probe int
		post  bool
	}
	var (
		done    atomic.Bool
		started sync.WaitGroup
		wg      sync.WaitGroup
		mu      sync.Mutex
		counted []seen
		bad     string
	)
	reader := func(batch int, seed uint64) {
		defer wg.Done()
		rng := xrand.New(seed)
		var local []seen
		var res []Result
		first := true
		for iter := 0; ; iter++ {
			last := done.Load()
			if !last && iter >= 100 {
				runtime.Gosched() // enough reads during the commit: wait for it, then read once more
				continue
			}
			idx := make([]int, batch)
			hs := make([]openflow.Header, batch)
			ptrs := make([]*openflow.Header, batch)
			for i := range idx {
				idx[i] = rng.Intn(len(probes))
				hs[i] = probes[idx[i]].h
				ptrs[i] = &hs[i]
			}
			if batch == 1 {
				res = append(res[:0], d.p.Execute(ptrs[0]))
			} else {
				res = d.p.ExecuteBatchInto(ptrs, res)
			}
			asPre, asPost := true, true
			for i, j := range idx {
				asPre = asPre && SameResult(res[i], probes[j].preRes)
				asPost = asPost && SameResult(res[i], probes[j].postRes)
			}
			if !asPre && !asPost {
				mu.Lock()
				bad = fmt.Sprintf("a %d-packet read matches neither the pre- nor the post-commit model: %+v", batch, res)
				mu.Unlock()
				break
			}
			for _, j := range idx {
				local = append(local, seen{probe: j, post: !asPre})
			}
			if first {
				started.Done()
				first = false
			}
			if last {
				break
			}
		}
		if first {
			started.Done()
		}
		mu.Lock()
		counted = append(counted, local...)
		mu.Unlock()
	}
	started.Add(2)
	wg.Add(2)
	go reader(1, d.seed+uint64(d.op))
	go reader(32, d.seed+uint64(d.op)+1)
	started.Wait()
	d.commit(cmds, nil)
	done.Store(true)
	wg.Wait()
	if bad != "" {
		d.fatalf("%s", bad)
	}
	for _, s := range counted {
		pr := &probes[s.probe]
		hits := pr.preHits
		if s.post {
			hits = pr.postHits
		}
		d.m.countIDs(hits, pr.h.PktLen)
	}
}

func ruleIDs(hit []*modelRule) []uint32 {
	ids := make([]uint32, len(hit))
	for i, r := range hit {
		ids[i] = r.e.Ref
	}
	return ids
}

// concurrentPackets runs two single-packet readers and one batch reader
// on a fixed rule set, repeating their packets until during (if set)
// returns; the packets touch no flow with an idle timeout, whose expiry
// a sweep in during could race. After they drain, every verdict and
// every per-rule count must be the model's.
func (d *modelDriver) concurrentPackets(during func()) {
	var sets [3][]openflow.Header
	for k, n := range []int{16, 16, 64} {
		for _, h := range d.headers(n) {
			if _, hit := d.m.walk(h); during == nil || !slices.ContainsFunc(hit, func(r *modelRule) bool { return r.e.IdleTimeout > 0 }) {
				sets[k] = append(sets[k], h)
			}
		}
	}
	var got [3][]Result
	var done atomic.Bool
	var wg sync.WaitGroup
	for k := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || !done.Load(); first = false {
				in := slices.Clone(sets[k])
				if k < 2 {
					for i := range in {
						got[k] = append(got[k], d.p.Execute(&in[i]))
					}
					continue
				}
				ptrs := make([]*openflow.Header, len(in))
				for i := range in {
					ptrs[i] = &in[i]
				}
				got[k] = append(got[k], d.p.ExecuteBatchInto(ptrs, nil)...)
			}
		}()
	}
	if during != nil {
		during()
	}
	done.Store(true)
	wg.Wait()
	for k, hs := range sets {
		for i, res := range got[k] {
			h := hs[i%len(hs)]
			want, hit := d.m.walk(h)
			if !SameResult(res, want) {
				d.fatalf("concurrent reader %d packet %d %v: pipeline %+v, model %+v", k, i, &h, res, want)
			}
			d.m.count(hit, h.PktLen)
		}
	}
}

// clockBack steps the clock back, sends packets that touch no flow with
// an idle timeout (whose expiry the timer wheel only ever moves later),
// and checks ages part-way back before restoring the clock: a flow's
// idle age follows its latest packet, not its largest clock value.
func (d *modelDriver) clockBack() {
	top := d.m.clock
	k := int64(2 + d.rng.Intn(3))
	d.setClock(top - k)
	var hs []openflow.Header
	for _, h := range d.headers(32) {
		_, hit := d.m.walk(h)
		if !slices.ContainsFunc(hit, func(r *modelRule) bool { return r.e.IdleTimeout > 0 }) {
			hs = append(hs, h)
		}
	}
	d.packets(hs, d.rng.Intn(2) == 0)
	d.setClock(top - k + 1 + int64(d.rng.Intn(int(k-1))))
	d.checkState()
	d.setClock(top)
}

func (d *modelDriver) setClock(now int64) {
	d.p.SetLifecycleClock(now)
	d.m.clock = now
}

// fault arms one failpoint for one operation: an aborted commit, sweep
// or migration must leave the pipeline equal to the model without it,
// failed cache installs change no verdict, and in wire mode a failed
// connection or a server closed mid-commit applies a request as often
// as the model says.
func (d *modelDriver) fault() {
	defer failpoint.DisarmAll()
	kinds := 4
	if d.c != nil {
		kinds = 12 // mostly wire faults: they have the most outcomes
	}
	k := d.rng.Intn(kinds)
	switch {
	case k < 4:
		d.localFault(k)
	case k < 11:
		d.wireFault()
	default:
		d.closeDuringCommit()
	}
	if k >= 4 {
		// First on the new connection, a sweep: its subscription must
		// deliver each record once.
		d.sweep(d.m.clock + int64(1+d.rng.Intn(3)))
	}
	failpoint.DisarmAll()
	d.packets(d.history, false)
}

// localFault fails a commit, a sweep, a migration or cache installs.
func (d *modelDriver) localFault(kind int) {
	switch kind {
	case 0:
		d.arm(failpoint.SiteCommit, "error")
		rejected := d.m.rejected
		cmds := d.randomCmds()
		_, _, ok := d.m.apply(cmds)
		d.commit(cmds, injectedFault)
		if ok && d.m.rejected == rejected {
			d.fatalf("commit of %v survived an injected fault", cmds)
		}
	case 1:
		d.faultedSweep()
	case 2:
		d.faultedMigration()
	default:
		d.arm(failpoint.SiteCacheInstall, "error:0.5")
		d.packets(d.headers(32), d.rng.Intn(2) == 0)
	}
}

// faultedSweep fails a sweep's commit while readers run: it removes and
// emits nothing and changes no verdict, and the flows it selected are
// re-armed, so the next second's sweep expires them.
func (d *modelDriver) faultedSweep() {
	now := d.m.clock + int64(1+d.rng.Intn(3))
	d.setClock(now)
	_, want := d.m.sweep(now)
	var n int
	var err error
	d.arm(failpoint.SiteCommit, "error")
	d.concurrentPackets(func() { n, err = d.p.SweepExpired(now) })
	failpoint.DisarmAll()
	if n != 0 || (err != nil) != (len(want) > 0) || err != nil && !injectedFault(err) {
		d.fatalf("faulted sweep at %d: %d removed, err %v; the model has %d due", now, n, err, len(want))
	}
	if err != nil {
		d.m.rejected++
	}
	if got := d.drainRemoved(); len(got) > 0 {
		d.fatalf("faulted sweep emitted %v", got)
	}
	d.checkState()
	d.sweep(now + 1)
}

// faultedMigration fails every migration an advisor pass attempts, at
// the build or at the swap, while readers run: the incumbents keep
// serving, the memory report stays byte-identical, no snapshot is
// published, and MigrationStats counts each failure once. (A table with
// no rules to replay passes a build fault: its migration completes.)
func (d *modelDriver) faultedMigration() {
	site := []string{failpoint.SiteMigrationBuild, failpoint.SiteMigrationCommit}[d.rng.Intn(2)]
	pre, ver, ms := d.p.MemoryReport(), d.p.SnapshotVersion(), d.p.MigrationStats()
	d.arm(site, "error")
	var events []MigrationEvent
	d.concurrentPackets(func() { events = d.p.AutotuneOnce() })
	hits := failpoint.Hits(site)
	if post := d.p.MigrationStats(); post.Failed != ms.Failed+hits || post.Migrations != ms.Migrations+uint64(len(events)) {
		d.fatalf("migration stats %+v -> %+v after %d injected failures and migrations %v", ms, post, hits, events)
	}
	if len(events) == 0 {
		d.sameMemory(pre, "a failed migration")
		if v := d.p.SnapshotVersion(); v != ver {
			d.fatalf("a failed migration published snapshot %d (was %d)", v, ver)
		}
	}
}

// wireFault fails one request's connection at one site: at accept (the
// connection closes before its hello), on the read of the request (lost
// before its commit) or on the write of the reply (lost after it). The
// request — a batch of adds or a packet — goes through the controller's
// connection, or through a ReconnClient that disarms the site when it
// reconnects and then replays the request. The switch applies a request
// as often as it read it: a lost request never unless replayed, a lost
// reply once, or twice when replayed. A replayed identical add converges
// the rule set but restarts the rule's counters and age and moves it
// behind equal-priority rules installed since; a replayed packet counts
// again.
func (d *modelDriver) wireFault() {
	site := []string{failpoint.SiteAccept, failpoint.SiteConnRead, failpoint.SiteConnWrite}[d.rng.Intn(3)]
	lost := site == failpoint.SiteConnWrite // applied before the failure
	var rc *ofproto.ReconnClient
	if site == failpoint.SiteAccept || d.rng.Intn(2) == 0 {
		rc = ofproto.NewReconnClient(d.srvAddr, ofproto.DialOptions{})
		rc.BackoffMin, rc.BackoffMax = time.Millisecond, time.Millisecond
		rc.Logf = func(string, ...any) { failpoint.DisarmAll() }
		defer rc.Close()
		if site != failpoint.SiteAccept {
			if err := rc.Barrier(context.Background()); err != nil { // connect first: a write fault would fail the hello
				d.fatalf("barrier: %v", err)
			}
		}
	}
	d.opName += " at " + site
	d.arm(site, "error")
	if d.rng.Intn(3) == 0 {
		h := d.headers(1)[0]
		want, hit := d.m.walk(h)
		var r *ofproto.PacketReply
		var err error
		if rc != nil {
			r, err = rc.SendPacket(context.Background(), &h)
		} else {
			r, err = d.c.SendPacket(&h)
		}
		switch {
		case rc == nil && err == nil:
			d.fatalf("packet survived the fault")
		case rc != nil && (err != nil || !SameResult(verdict(r), d.seen(want))):
			d.fatalf("replayed packet %v: %+v, %v; model %+v", &h, r, err, want)
		}
		if lost {
			d.m.count(hit, h.PktLen)
		}
		if rc != nil {
			d.m.count(hit, h.PktLen)
		}
	} else {
		cmds := d.replayCmds()
		if lost {
			d.settle(cmds)
		}
		if rc != nil {
			d.commitVia(cmds, nil, func(cmds []FlowCmd) ([5]int, error) {
				return replyCounts(rc.SendFlowMods(context.Background(), flowMods(cmds)))
			})
		} else if _, err := d.c.SendFlowMods(flowMods(cmds)); err == nil {
			d.fatalf("flow-mods %v survived the fault", cmds)
		}
	}
	failpoint.DisarmAll()
	d.dial() // the read fault may have taken the idle controller connection too
}

// replayCmds draws a batch of adds, half of them re-adding a live rule
// as it stands: a batch the switch accepts or rejects alike twice.
func (d *modelDriver) replayCmds() []FlowCmd {
	var cmds []FlowCmd
	for n := 1 + d.rng.Intn(3); n > 0; n-- {
		id := d.m.order[d.rng.Intn(len(d.m.order))]
		e := d.liveRule(id)
		if e == nil || d.rng.Intn(2) == 0 {
			e = d.entry(id)
		}
		cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: id, Entry: *e})
	}
	return cmds
}

// closeDuringCommit closes the server while a commit it is applying is
// held at the commit failpoint: the batch lands whole and its reply is
// lost (a batch the model rejects is refused first, and absent). The
// pipeline then serves a new server.
func (d *modelDriver) closeDuringCommit() {
	cmds := d.randomCmds()
	_, _, ok := d.m.apply(cmds)
	d.arm(failpoint.SiteCommit, "delay:10ms")
	done := make(chan error, 1)
	go func(c *ofproto.Client) {
		_, err := c.SendFlowMods(flowMods(cmds))
		done <- err
	}(d.c)
	var err error
	if !ok {
		err = <-done
	}
	for ok && failpoint.Hits(failpoint.SiteCommit) == 0 {
		runtime.Gosched()
	}
	d.srv.Close()
	if ok {
		err = <-done
	}
	if ok == (err == nil || badRequest(err)) {
		d.fatalf("server closed during the commit of %v: err %v, model accepts %v", cmds, err, ok)
	}
	d.settle(cmds)
	if n := d.srv.Counters().Panics; n != 0 {
		d.fatalf("the server recovered %d panics", n)
	}
	failpoint.DisarmAll()
	d.serve()
}

func (d *modelDriver) arm(site, spec string) {
	if err := failpoint.Arm(site, spec); err != nil {
		d.fatalf("arm %s: %v", site, err)
	}
}

// --- State check ----------------------------------------------------------

// checkState compares everything the pipeline reports about its state
// with the model: the installed rules with their cookies, instructions,
// timeouts, packet and byte counts and ages; the per-table rule counts;
// the transaction and lifecycle telemetry; and the memory accounting's
// three views, which must agree to the bit — the component report, the
// published counters and the snapshot's copy of them. In wire mode the
// switch must report the same: its stats report, a paged flow-stats
// scrape and an aggregate over a cookie filter.
func (d *modelDriver) checkState() {
	d.t.Helper()
	got := map[string]FlowStats{}
	d.p.VisitFlows(-1, 0, 0, 0, 0, func(fs *FlowStats) bool {
		k := ruleKey(fs.Table, fs.Entry)
		got[k] = *fs
		return true
	})
	total := d.checkFlows("the pipeline", got)
	if c := d.p.LifecycleClock(); c != d.m.clock {
		d.fatalf("lifecycle clock %d, model %d", c, d.m.clock)
	}

	ms := d.p.MemoryStats()
	for _, tm := range ms.Tables {
		if want := len(d.m.tables[tm.Table].rules); tm.Rules != want {
			d.fatalf("table %d reports %d rules, model %d", tm.Table, tm.Rules, want)
		}
	}
	if rep := d.p.MemoryReport(); uint64(rep.TotalBits) != ms.TotalBits {
		d.fatalf("memory views disagree: report %d, stats %d bits", rep.TotalBits, ms.TotalBits)
	}
	d.recount()

	tc, ls := d.p.TxCounters(), d.p.LifecycleStats()
	if tc != (TxCounters{Txs: d.m.txs, Commands: d.m.cmds, Rejected: d.m.rejected}) {
		d.fatalf("tx counters %+v, model %d txs / %d commands / %d rejected", tc, d.m.txs, d.m.cmds, d.m.rejected)
	}
	if ls.Flows != int64(total) || ls.ExpiredIdle != d.m.expiredIdle || ls.ExpiredHard != d.m.expiredHard ||
		ls.Sweeps != d.m.sweeps || ls.Groups != len(d.m.groups) || ls.Removed != d.m.expiredIdle+d.m.expiredHard {
		d.fatalf("lifecycle stats %+v, model %d flows, %d/%d expired, %d sweeps, %d groups",
			ls, total, d.m.expiredIdle, d.m.expiredHard, d.m.sweeps, len(d.m.groups))
	}
	if d.c == nil {
		return
	}

	if st := d.stats(); st.Tx != tc || st.Lifecycle != ls || !reflect.DeepEqual(st.Memory, ms) {
		d.fatalf("the switch reports tx %+v, lifecycle %+v, memory %+v;\nthe pipeline %+v, %+v, %+v", st.Tx, st.Lifecycle, st.Memory, tc, ls, ms)
	}
	got = map[string]FlowStats{}
	err := d.c.VisitFlowStats(ofproto.FlowStatsRequest{Table: ofproto.AllTables, Max: 7}, func(r *ofproto.FlowStatsRow) bool {
		e, id := &r.Entry, openflow.TableID(r.Table)
		got[ruleKey(id, e)] = FlowStats{Table: id, Priority: e.Priority, Cookie: e.Cookie, IdleTimeout: e.IdleTimeout,
			HardTimeout: e.HardTimeout, Age: r.Age, IdleAge: r.IdleAge, Packets: r.Packets, Bytes: r.Bytes}
		return true
	})
	if err != nil {
		d.fatalf("flow stats: %v", err)
	}
	d.checkFlows("the switch", got)
	req := ofproto.AggregateStatsRequest{Table: ofproto.AllTables, Cookie: uint64(d.op % 8), CookieMask: uint64(d.op%2) * 7}
	var want ofproto.AggregateStatsReply
	for _, t := range d.m.tables {
		for _, r := range t.rules {
			if (r.e.Cookie^req.Cookie)&req.CookieMask == 0 {
				want.Flows++
				want.Packets += r.pkts
				want.Bytes += r.bytes
			}
		}
	}
	if agg, err := d.c.AggregateStats(&req); err != nil || *agg != want {
		d.fatalf("aggregate over %+v: %+v, %v; model %+v", req, agg, err, want)
	}
	if n := d.srv.Counters().Panics; n != 0 {
		d.fatalf("the server recovered %d panics", n)
	}
}

// checkFlows compares one view of the installed flows, keyed by rule,
// with the model's rules, and returns their number.
func (d *modelDriver) checkFlows(view string, got map[string]FlowStats) int {
	d.t.Helper()
	now, total := d.m.clock, 0
	for _, id := range d.m.order {
		for _, r := range d.m.tables[id].rules {
			total++
			k := ruleKey(id, &r.e)
			fs, ok := got[k]
			if !ok {
				d.fatalf("rule %s missing from %s", k, view)
			}
			delete(got, k)
			want := FlowStats{
				Table: id, Priority: r.e.Priority, Cookie: r.e.Cookie,
				IdleTimeout: r.e.IdleTimeout, HardTimeout: r.e.HardTimeout,
				Age: uint32(max(now-r.born, 0)), IdleAge: uint32(max(now-max(r.last, r.born), 0)),
				Packets: r.pkts, Bytes: r.bytes,
			}
			fs.Ref, fs.Entry = 0, nil
			if fs != want {
				d.fatalf("rule %s: %s reports %+v, model %+v", k, view, fs, want)
			}
		}
	}
	for k := range got {
		d.fatalf("%s holds rule %s the model does not", view, k)
	}
	return total
}

// recount checks each table that changed since its last recount against
// its structures and recounts its memory (Pipeline.CheckTable).
func (d *modelDriver) recount() {
	d.t.Helper()
	for _, id := range d.m.order {
		if gen := d.p.Generation(id); d.recounted[id] != gen {
			d.recounted[id] = gen
			if err := d.p.CheckTable(id); err != nil {
				d.fatalf("table %d: %v", id, err)
			}
		}
	}
}

// --- Tests ------------------------------------------------------------------

// TestPipelineModel runs the seeded sequence under every configuration
// of the sweep, with page seals on: no published page may be written.
func TestPipelineModel(t *testing.T) {
	cow.SealForTest(t)
	for i, cfg := range modelConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			newModelDriver(t, cfg, mixedLayout, uint64(2015+i)).run(modelSteps)
		})
	}
}

// The sweep's named legs: the driver on the table shape and under the
// configurations of the differential suites it replaced — the ACL, the
// destination prefixes dir24 serves and the metadata + prefix routes as
// one-table pipelines, besides the mixed one — with seeds of their own.
var (
	lpmLayout   = mixedLayout[1:2]
	aclLayout   = mixedLayout[2:3]
	routeLayout = mixedLayout[3:4]
)

// runLeg runs the driver under each configuration, as subtests named by
// backend when there are several.
func runLeg(t *testing.T, seed uint64, layout []TableConfig, cfgs ...modelConfig) {
	cow.SealForTest(t)
	for i, cfg := range cfgs {
		run := func(t *testing.T) { newModelDriver(t, cfg, layout, seed+uint64(i)).run(legSteps) }
		if len(cfgs) == 1 {
			run(t)
		} else {
			t.Run(cfg.backend, run)
		}
	}
}

// each returns cfg under each of the given default backends.
func each(cfg modelConfig, backends ...string) []modelConfig {
	out := make([]modelConfig, len(backends))
	for i, b := range backends {
		out[i] = cfg
		out[i].backend = b
	}
	return out
}

var generic = []string{BackendLinearTCAM, BackendMBT, BackendTSS}

func TestBackendsMatchReference(t *testing.T) {
	runLeg(t, 5015, aclLayout, each(modelConfig{workers: 1}, generic...)...)
}

func TestBackendsMatchUnderTx(t *testing.T) {
	runLeg(t, 777, mixedLayout, each(modelConfig{workers: 4}, generic...)...)
}

func TestBackendCloneIsolationUnderChurn(t *testing.T) {
	runLeg(t, 99, mixedLayout, each(modelConfig{micro: 1024, mega: 256, workers: 4}, BackendDIR24, BackendLinearTCAM, BackendMBT, BackendTSS)...)
}

func TestMegaflowDifferentialUnderChurn(t *testing.T) {
	runLeg(t, 6001, mixedLayout, each(modelConfig{mega: 256, workers: 1}, generic...)...)
}

func TestMicroflowCacheDifferentialUnderChurn(t *testing.T) {
	runLeg(t, 5, mixedLayout, modelConfig{backend: BackendMBT, micro: 1024, workers: 1})
}

func TestMicroflowCacheConcurrentChurn(t *testing.T) {
	runLeg(t, 9, mixedLayout, modelConfig{backend: BackendMBT, micro: 1024, workers: 4})
}

func TestRouteTableChurn(t *testing.T) {
	runLeg(t, 31415, routeLayout, modelConfig{backend: BackendMBT, workers: 1})
}

func TestConcurrentSnapshotChurn(t *testing.T) {
	runLeg(t, 137, routeLayout, modelConfig{backend: BackendMBT, micro: 1024, mega: 256, workers: 4})
}

func TestAutoBackendChurnDifferential(t *testing.T) {
	runLeg(t, 1012, lpmLayout, modelConfig{backend: BackendAuto, workers: 1})
}

func TestDIR24MatchesGenericBackends(t *testing.T) {
	runLeg(t, 2480, lpmLayout, modelConfig{backend: BackendDIR24, workers: 1})
}

func TestDIR24TxDifferential(t *testing.T) {
	runLeg(t, 8124, mixedLayout, modelConfig{backend: BackendDIR24, workers: 4})
}

func TestDIR24MegaflowDifferential(t *testing.T) {
	runLeg(t, 6024, lpmLayout, modelConfig{backend: BackendDIR24, mega: 256, workers: 1})
}

// TestPipelineModelWire is the driver's wire leg: the sequence drives
// the pipeline through a server on loopback, as a controller does.
func TestPipelineModelWire(t *testing.T) {
	cow.SealForTest(t)
	for i, cfg := range wireConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			t.Parallel()
			newModelDriver(t, cfg, mixedLayout, uint64(4040+i)).run(modelSteps)
		})
	}
}

// TestPipelineModelFailpoints is the driver's fault leg (build with
// -tags failpoint): the sequence additionally aborts commits, sweeps and
// migrations and fails cache installs, and in wire mode fails
// connections at accept, read and write and closes the server
// mid-commit. Failpoints are process-wide, so the configurations run
// one at a time.
func TestPipelineModelFailpoints(t *testing.T) {
	if !failpoint.Armed {
		t.Skip("fault injection is compiled in only with -tags failpoint")
	}
	cow.SealForTest(t)
	for i, cfg := range append(modelConfigs(), wireConfigs()...) {
		if !cfg.wire && cfg.workers == 1 && cfg.micro != cfg.mega {
			continue // half the tier mixes suffice here
		}
		t.Run(cfg.String(), func(t *testing.T) {
			d := newModelDriver(t, cfg, mixedLayout, uint64(7000+i))
			d.faults = true
			d.run(modelSteps)
		})
	}
}

// FuzzPipelineModel decodes an operation sequence from the input: the
// first byte picks the configuration, the second seeds the operations'
// contents, and every further byte is one operation.
func FuzzPipelineModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 30, 31, 60, 1, 2, 70, 75, 90})
	f.Add([]byte{31, 7, 0, 0, 40, 50, 60, 0, 80, 95, 99, 1, 2, 3, 65, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfgs := modelConfigs()
		d := newModelDriver(t, cfgs[int(data[0])%len(cfgs)], mixedLayout, uint64(data[1]))
		for _, b := range data[2:min(len(data), 258)] {
			d.step(int(b))
		}
	})
}

// TestWildcardShapesMatchReference is the driver's structured-shape mode,
// aimed at the mbt candidate walk where wildcards sit: one table of 3–6
// shuffled fields, every dimension left open by some rule, a catch-all,
// overlapping values that share label prefixes and low-cardinality
// priorities (ties), under mbt and tss. Every 50 steps one commit
// removes every rule that leaves one dimension open — under mbt its
// wildcard count must fall to zero and its bit clear, so the walk stops
// offering Wildcard there — the packets are checked, and the next commit
// brings the rules back.
func TestWildcardShapesMatchReference(t *testing.T) {
	cow.SealForTest(t)
	pool := []openflow.FieldID{
		openflow.FieldIPv4Src, openflow.FieldIPv4Dst, openflow.FieldSrcPort,
		openflow.FieldDstPort, openflow.FieldIPProto, openflow.FieldVLANID,
	}
	for round := 0; round < 8; round++ {
		fields := slices.Clone(pool)
		rng := xrand.New(uint64(9000 + round))
		rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		fields = fields[:3+round%4]
		for _, kind := range []string{BackendMBT, BackendTSS} {
			d := newModelDriver(t, modelConfig{backend: kind, workers: 1}, []TableConfig{{ID: 0, Fields: fields}}, uint64(9000+round))
			d.runShapes(fields)
		}
	}
}

// runShapes is the shape mode's sequence over a one-table pipeline.
func (d *modelDriver) runShapes(fields []openflow.FieldID) {
	r := d.rng
	match := func(f openflow.FieldID) openflow.Match {
		switch f {
		case openflow.FieldIPv4Src, openflow.FieldIPv4Dst:
			plen := []int{8, 16, 24, 32}[r.Intn(4)]
			return openflow.Prefix(f, uint64(0x0A010203+r.Intn(2)<<16)&bitops.Mask64(plen, 32), plen)
		case openflow.FieldSrcPort, openflow.FieldDstPort:
			lo := uint64([]int{0, 80, 1024}[r.Intn(3)])
			return openflow.Range(f, lo, lo+uint64(r.Intn(3))*512)
		case openflow.FieldIPProto:
			return openflow.Exact(f, uint64([]int{6, 17}[r.Intn(2)]))
		default:
			return openflow.Exact(f, uint64(1+r.Intn(3)))
		}
	}
	// add installs a rule leaving the dimensions open[d] unconstrained.
	add := func(open func(dim int) bool) {
		e := openflow.FlowEntry{Priority: 1 + r.Intn(4)}
		for dim, f := range fields {
			if !open(dim) {
				e.Matches = append(e.Matches, match(f))
			}
		}
		e.Instructions = []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(1 + r.Intn(64))))}
		d.commit([]FlowCmd{{Op: CmdAdd, Entry: e}}, nil)
	}
	probe := func() {
		d.op++
		d.packets(d.headers(32), r.Intn(2) == 0)
		d.checkState()
	}

	add(func(int) bool { return false }) // fully constrained
	for dim := range fields {
		add(func(x int) bool { return x == dim })
	}
	add(func(int) bool { return true }) // catch-all
	for step := 0; step < 200; step++ {
		d.opName = "shape step"
		if live := d.m.tables[0].rules; len(live) == 0 || r.Intn(100) < 65 {
			add(func(int) bool { return r.Intn(10) < 3 })
		} else {
			e := live[r.Intn(len(live))].e
			d.commit([]FlowCmd{{Op: CmdDeleteStrict, Entry: openflow.FlowEntry{Priority: e.Priority, Matches: e.Matches}}}, nil)
		}
		probe()
		if step%50 != 49 {
			continue
		}
		dim := r.Intn(len(fields))
		d.opName = fmt.Sprintf("dimension %d closed", dim)
		var gone, back []FlowCmd
		for _, rule := range d.m.tables[0].rules {
			if _, ok := rule.e.Match(fields[dim]); !ok {
				e := rule.e
				e.Ref = 0
				gone = append(gone, FlowCmd{Op: CmdDeleteStrict, Entry: openflow.FlowEntry{Priority: e.Priority, Matches: e.Matches}})
				back = append(back, FlowCmd{Op: CmdAdd, Entry: e})
			}
		}
		d.commit(gone, nil)
		if n, on, _ := d.p.Wildcards(0, dim); n != 0 || on {
			d.fatalf("%d wildcards (bit %v) left after the last open rule", n, on)
		}
		probe()
		d.opName = fmt.Sprintf("dimension %d reopened", dim)
		d.commit(back, nil)
		if n, on, mbt := d.p.Wildcards(0, dim); mbt && len(back) > 0 && (n == 0 || !on) {
			d.fatalf("no wildcard (bit %v) after %d open rules returned", on, len(back))
		}
		probe()
	}
}
