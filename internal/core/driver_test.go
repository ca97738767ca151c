package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/core/autotune"
	"ofmtl/internal/cow"
	"ofmtl/internal/crossprod"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// The op-sequence driver: one seeded random sequence of control- and
// data-plane operations applied to a Pipeline and to the executable
// model (model_test.go) side by side, with the pipeline checked against
// the model after every operation. It runs under every configuration
// switchd's flags reach — default backend × microflow tier × megaflow
// tier × batch workers — and replaces the per-subsystem differential
// suites: one generator, one reference.
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
}

func (c modelConfig) String() string {
	tiers := [2][2]string{{"nocache", "mega"}, {"micro", "micro-mega"}}
	return fmt.Sprintf("%s-%s-w%d", c.backend, tiers[min(c.micro, 1)][min(c.mega, 1)], c.workers)
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

// The mixed layout: an ingress table that writes metadata, rewrites the
// destination or jumps ahead; a destination-prefix table (the shape
// dir24 serves, with /25–/32 spill prefixes); a 5-tuple ACL with prefix,
// range and exact fields; and a metadata + prefix routing table. Misses
// fall through, go to the controller or drop.
var mixedLayout = []TableConfig{
	{ID: 0, Fields: []openflow.FieldID{openflow.FieldInPort, openflow.FieldVLANID}, Miss: MissPolicy{Kind: MissGoto, Table: 1}},
	{ID: 1, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Miss: MissPolicy{Kind: MissGoto, Table: 2}},
	{ID: 2, Fields: []openflow.FieldID{openflow.FieldIPv4Src, openflow.FieldIPv4Dst, openflow.FieldSrcPort, openflow.FieldDstPort, openflow.FieldIPProto}},
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
	return d
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
		d.concurrentPackets()
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
		}[r.Intn(5)]
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
// with the model's counts, or reject it exactly when the model does;
// expected(err), when set, admits a rejection the model cannot foresee
// (budget, injected fault). After any rejection the pipeline must still
// equal the pre-commit model, and its memory report the pre-commit one.
func (d *modelDriver) commit(cmds []FlowCmd, expected func(error) bool) {
	next, want, ok := d.m.apply(cmds)
	var pre *memmodel.SystemReport
	if !ok || expected != nil {
		pre = d.p.MemoryReport() // a rejection must leave it as it is
	}
	tx := d.p.Begin()
	for _, c := range cmds {
		tx.FlowMod(c)
	}
	res, err := tx.Commit()
	switch {
	case err != nil && (!ok || expected != nil && expected(err)):
		d.m.rejected++
		d.sameMemory(pre, "rejected commit")
	case err != nil:
		d.fatalf("commit of %v rejected: %v", cmds, err)
	case !ok:
		d.fatalf("commit of %v accepted; the model rejects it", cmds)
	case res.Counts() != want:
		d.fatalf("commit of %v: counts %v, model %v", cmds, res.Counts(), want)
	default:
		d.m = next
	}
}

// sameMemory checks that the pipeline's memory report is still pre,
// component by component, and that every table reports the backend it
// reported then.
func (d *modelDriver) sameMemory(pre *memmodel.SystemReport, what string) {
	d.t.Helper()
	if post := d.p.MemoryReport(); !reflect.DeepEqual(post, pre) {
		d.fatalf("%s moved the memory account:\n%s\n%v\n->\n%s\n%v", what, pre, pre.Components, post, post.Components)
	}
}

// packets sends headers through Execute one by one, or as one
// ExecuteBatchInto, and checks every verdict.
func (d *modelDriver) packets(hs []openflow.Header, single bool) {
	in := slices.Clone(hs)
	if single {
		d.res = d.res[:0]
		for i := range in {
			d.res = append(d.res, d.p.Execute(&in[i]))
		}
	} else {
		ptrs := make([]*openflow.Header, len(in))
		for i := range in {
			ptrs[i] = &in[i]
		}
		d.res = d.p.ExecuteBatchInto(ptrs, d.res)
	}
	for i, h := range hs {
		want, hit := d.m.walk(h)
		if !sameResult(d.res[i], want) {
			d.fatalf("packet %d %v: pipeline %+v, model %+v", i, &h, d.res[i], want)
		}
		d.m.count(hit, h.PktLen)
	}
}

// advance moves the clock forward 1–3 seconds, sweeping expired flows
// (checking every flow-removed record) or, sometimes, only moving time.
func (d *modelDriver) advance() {
	now := d.m.clock + int64(1+d.rng.Intn(3))
	if d.rng.Intn(4) == 0 {
		d.p.SetLifecycleClock(now)
		d.m.clock = now
		return
	}
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

// drainRemoved reads the pipeline's new flow-removed records.
func (d *modelDriver) drainRemoved() []string {
	recs, next, dropped := d.p.FlowRemovedSince(d.removed)
	if dropped != 0 {
		d.fatalf("%d flow-removed records dropped", dropped)
	}
	d.removed = next
	return removedKeys(recs)
}

func removedKeys(recs []FlowRemoved) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%s cookie=%d reason=%d dur=%d pkts=%d bytes=%d",
			ruleKey(r.Table, r.Entry), r.Entry.Cookie, r.Reason, r.DurationSec, r.Packets, r.Bytes)
	}
	sort.Strings(out)
	return out
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
	switch op {
	case 0:
		err = d.p.AddGroup(g)
	case 1:
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
// to the pre-commit model with an identical memory report.
func (d *modelDriver) budgetCommit() {
	id := d.m.order[d.rng.Intn(len(d.m.order))]
	if d.rng.Intn(2) == 0 {
		d.p.SetMemoryBudget(d.p.MemoryStats().TotalBits)
	} else if err := d.p.SetTableBudget(id, d.p.tables[id].Memory().TotalBits()); err != nil {
		d.fatalf("%v", err)
	}
	var cmds []FlowCmd
	for n := 1 + d.rng.Intn(4); n > 0; n-- {
		cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: id, Entry: *d.entry(id)})
	}
	d.commit(cmds, func(err error) bool {
		var be *BudgetError
		return errors.As(err, &be)
	})
	d.p.SetMemoryBudget(0)
	if err := d.p.SetTableBudget(id, 0); err != nil {
		d.fatalf("%v", err)
	}
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
		if slices.Equal(pr.preHits, pr.postHits) || !sameResult(pr.preRes, pr.postRes) {
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
				asPre = asPre && sameResult(res[i], probes[j].preRes)
				asPost = asPost && sameResult(res[i], probes[j].postRes)
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
// at once on a fixed rule set; after they drain, every verdict and every
// per-rule count must be the model's.
func (d *modelDriver) concurrentPackets() {
	sets := [3][]openflow.Header{d.headers(16), d.headers(16), d.headers(64)}
	var got [3][]Result
	var wg sync.WaitGroup
	for k := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := slices.Clone(sets[k])
			if k < 2 {
				for i := range in {
					got[k] = append(got[k], d.p.Execute(&in[i]))
				}
				return
			}
			ptrs := make([]*openflow.Header, len(in))
			for i := range in {
				ptrs[i] = &in[i]
			}
			got[k] = d.p.ExecuteBatchInto(ptrs, nil)
		}()
	}
	wg.Wait()
	for k, hs := range sets {
		for i, h := range hs {
			want, hit := d.m.walk(h)
			if !sameResult(got[k][i], want) {
				d.fatalf("concurrent reader %d packet %d %v: pipeline %+v, model %+v", k, i, &h, got[k][i], want)
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

// fault arms one failpoint for one operation: an aborted commit or sweep
// must leave the pipeline equal to the pre-commit model, an aborted
// migration leaves the incumbent serving, and failed cache installs
// change no verdict.
func (d *modelDriver) fault() {
	defer failpoint.DisarmAll()
	injected := func(err error) bool { return errors.Is(err, failpoint.ErrInjected) }
	switch d.rng.Intn(4) {
	case 0:
		d.arm(failpoint.SiteCommit, "error")
		rejected := d.m.rejected
		cmds := d.randomCmds()
		_, _, ok := d.m.apply(cmds)
		d.commit(cmds, injected)
		if ok && d.m.rejected == rejected {
			d.fatalf("commit of %v survived an injected fault", cmds)
		}
	case 1:
		d.arm(failpoint.SiteCommit, "error")
		now := d.m.clock + int64(1+d.rng.Intn(3))
		_, want := d.m.sweep(now)
		n, err := d.p.SweepExpired(now)
		if n != 0 || (err != nil) != (len(want) > 0) || err != nil && !injected(err) {
			d.fatalf("faulted sweep at %d: %d removed, err %v; the model has %d due", now, n, err, len(want))
		}
		if err != nil {
			d.m.rejected++
		}
		if got := d.drainRemoved(); len(got) > 0 {
			d.fatalf("faulted sweep emitted %v", got)
		}
		d.m.clock = now
	case 2:
		d.arm([]string{failpoint.SiteMigrationBuild, failpoint.SiteMigrationCommit}[d.rng.Intn(2)], "error")
		d.p.AutotuneOnce()
	default:
		d.arm(failpoint.SiteCacheInstall, "error:0.5")
		d.packets(d.headers(32), d.rng.Intn(2) == 0)
	}
	failpoint.DisarmAll()
	d.packets(d.history, false)
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
// published counters and the snapshot's copy of them.
func (d *modelDriver) checkState() {
	d.t.Helper()
	got := map[string]FlowStats{}
	d.p.VisitFlows(-1, 0, 0, 0, 0, func(fs *FlowStats) bool {
		got[ruleKey(fs.Table, fs.Entry)] = *fs
		return true
	})
	now := d.m.clock
	if c := d.p.LifecycleClock(); c != now {
		d.fatalf("lifecycle clock %d, model %d", c, now)
	}
	total := 0
	for _, id := range d.m.order {
		for _, r := range d.m.tables[id].rules {
			total++
			k := ruleKey(id, &r.e)
			fs, ok := got[k]
			if !ok {
				d.fatalf("rule %s missing from the pipeline", k)
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
				d.fatalf("rule %s: pipeline %+v, model %+v", k, fs, want)
			}
		}
	}
	for k := range got {
		d.fatalf("pipeline holds rule %s the model does not", k)
	}

	ms := d.p.MemoryStats()
	for _, tm := range ms.Tables {
		if want := len(d.m.tables[tm.Table].rules); tm.Rules != want {
			d.fatalf("table %d reports %d rules, model %d", tm.Table, tm.Rules, want)
		}
	}
	rep, snap := d.p.MemoryReport(), d.p.SnapshotMemoryStats()
	if uint64(rep.TotalBits) != ms.TotalBits || snap.TotalBits != ms.TotalBits {
		d.fatalf("memory views disagree: report %d, stats %d, snapshot %d bits", rep.TotalBits, ms.TotalBits, snap.TotalBits)
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
}

// recount checks each table that changed since its last recount against
// its structures, the structures first. Under mbt, every combination
// store's prefix stages hold exactly its live keys' prefixes
// (crossprod.Table.CheckStages) — a stale stage changes no verdict until
// it prunes a live key — and every range searcher's elementary intervals
// pass their structural check, which includes a from-scratch sweep
// (rangelookup.Table.Check). Then the account: the published memory
// figure is the live backend's statement as it stands, and the statement
// is a recount: a backend of the same kind rebuilt from the table's rule
// store and given the live backend's high-water marks states the same
// memories, component by component.
func (d *modelDriver) recount() {
	d.t.Helper()
	d.p.mu.Lock()
	defer d.p.mu.Unlock()
	for _, id := range d.m.order {
		t := d.p.tables[id]
		gen := t.Generation()
		if d.recounted[id] == gen {
			continue
		}
		d.recounted[id] = gen
		if b, ok := t.backend.(*mbtBackend); ok {
			combos := []*crossprod.Table{b.combos}
			for _, s := range b.searchers {
				switch s := s.(type) {
				case *PrefixFieldSearcher:
					combos = append(combos, s.combos)
				case *RangeFieldSearcher:
					if err := s.table.Check(); err != nil {
						d.fatalf("table %d, %s searcher: %v", id, s.field, err)
					}
				}
			}
			for _, c := range combos {
				if err := c.CheckStages(); err != nil {
					d.fatalf("table %d: %v", id, err)
				}
			}
		}
		live := memAccount{report: &memmodel.SystemReport{}, prefix: "live"}
		t.backend.memory(&live)
		if pub := t.Memory(); pub.Backend != t.backend.Kind() || pub.Rules != t.rules || pub.BackendStats != live.BackendStats {
			d.fatalf("table %d publishes %+v; its %s backend states %+v for %d rules", id, pub, t.backend.Kind(), live.BackendStats, t.rules)
		}
		nb, err := t.buildBackendFromStore(t.backend.Kind())
		if err != nil {
			d.fatalf("rebuilding table %d: %v", id, err)
		}
		if hw, ok := t.backend.(highWater); ok {
			nb.(highWater).restoreMarks(hw.marks(nil))
		}
		re := memAccount{report: &memmodel.SystemReport{}, prefix: "live"}
		nb.memory(&re)
		if !reflect.DeepEqual(re.report, live.report) {
			d.fatalf("table %d states\n%v\na rebuild from its rules states\n%v", id, live.report.Components, re.report.Components)
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

// TestPipelineModelFailpoints is the driver's fault leg (build with
// -tags failpoint): the sequence additionally aborts commits, sweeps and
// migrations and fails cache installs. Failpoints are process-wide, so
// the configurations run one at a time.
func TestPipelineModelFailpoints(t *testing.T) {
	if !failpoint.Armed {
		t.Skip("fault injection is compiled in only with -tags failpoint")
	}
	cow.SealForTest(t)
	for i, cfg := range modelConfigs() {
		if cfg.workers == 1 && cfg.micro != cfg.mega {
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
	mbt, _ := d.p.tables[0].backend.(*mbtBackend)
	wildcards := func(dim int) (int, bool) {
		if mbt == nil {
			return 0, false
		}
		return mbt.wildCount[dim], mbt.wild&(1<<dim) != 0
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
		if n, on := wildcards(dim); n != 0 || on {
			d.fatalf("%d wildcards (bit %v) left after the last open rule", n, on)
		}
		probe()
		d.opName = fmt.Sprintf("dimension %d reopened", dim)
		d.commit(back, nil)
		if n, on := wildcards(dim); mbt != nil && len(back) > 0 && (n == 0 || !on) {
			d.fatalf("no wildcard (bit %v) after %d open rules returned", on, len(back))
		}
		probe()
	}
}
