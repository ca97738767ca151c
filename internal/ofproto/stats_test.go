package ofproto

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/core/autotune"
	"ofmtl/internal/openflow"
)

// liveStatsPipeline builds a pipeline that moves every section of the
// report: an auto table that migrates once, a pinned tss table under a
// table budget, a process budget, both cache tiers with hits, churn with
// one rejected transaction, an expiry sweep and a group.
func liveStatsPipeline(tb testing.TB) *core.Pipeline {
	tb.Helper()
	p := core.NewPipeline()
	for _, cfg := range []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Backend: core.BackendAuto},
		{ID: 1, Fields: []openflow.FieldID{openflow.FieldIPv4Src, openflow.FieldDstPort}, Backend: core.BackendTSS},
	} {
		if _, err := p.AddTable(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	p.SetCacheSize(256)
	p.SetMegaflowSize(256)
	route := func(i int) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority:     24,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(i)<<8, 24)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(i) + 1))},
		}
	}
	tx := p.Begin()
	for i := 0; i < 64; i++ {
		tx.Add(0, route(i))
	}
	tx.Add(1, &openflow.FlowEntry{
		Priority:     1,
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldIPv4Src, 7), openflow.Exact(openflow.FieldDstPort, 80)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
	})
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	// Churn: delete and re-add a route, then one rejected transaction.
	for _, t := range []*core.Tx{p.Begin().DeleteStrict(0, 24, route(5).Matches...), p.Begin().Add(0, route(5))} {
		if _, err := t.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := p.Begin().Add(9, route(1)).Commit(); err == nil {
		tb.Fatal("add to a missing table committed")
	}
	// Traffic: a microflow hit, then a new flow differing only in a
	// field the walk never consulted (a megaflow hit).
	for _, h := range []openflow.Header{{IPv4Dst: 0x0301}, {IPv4Dst: 0x0301}, {IPv4Dst: 0x0301, IPv4Src: 9}} {
		p.Execute(&h)
	}
	// Expiry: one route hard-expires in a sweep.
	now := p.LifecycleClock()
	timed := route(63)
	timed.HardTimeout = 1
	if _, err := p.Begin().Add(0, timed).Commit(); err != nil {
		tb.Fatal(err)
	}
	if n, err := p.SweepExpired(now + 2); err != nil || n != 1 {
		tb.Fatalf("sweep = %d, %v, want 1", n, err)
	}
	if err := p.AddGroup(core.Group{ID: 1, Type: core.GroupAll, Buckets: []core.Bucket{{Actions: []openflow.Action{openflow.Output(2)}}}}); err != nil {
		tb.Fatal(err)
	}
	// One auto migration: with a zero policy the advisor moves the
	// prefix table to dir24.
	p.SetAutotunePolicy(autotune.Policy{})
	if events := p.AutotuneOnce(); len(events) != 1 {
		tb.Fatalf("advisor pass: %v, want one migration", events)
	}
	// Budgets last: dir24's fixed array would not fit one sized for mbt.
	ms := p.MemoryStats()
	p.SetMemoryBudget(4 * ms.TotalBits)
	if err := p.SetTableBudget(1, 2*ms.Tables[1].TotalBits()); err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestEndToEndStats serves the live pipeline and checks that each
// section of the wire report equals the accessor it came from.
func TestEndToEndStats(t *testing.T) {
	p := liveStatsPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}

	sections := []struct {
		name      string
		got, want any
	}{
		{"tables", st.Tables, p.TableInfos()},
		{"memory", st.Memory, p.MemoryStats()},
		{"m20k", st.M20KBlocks, p.MemoryReport().Blocks},
		{"microflow", st.Microflow, p.CacheStats()},
		{"megaflow", st.Megaflow, p.MegaflowStats()},
		{"pressure", st.Pressure, p.PressureStats()},
		{"tx", st.Tx, p.TxCounters()},
		{"lifecycle", st.Lifecycle, p.LifecycleStats()},
		{"advisor", st.Advisor, p.AdvisorStats()},
	}
	for _, s := range sections {
		if !reflect.DeepEqual(s.got, s.want) {
			t.Errorf("%s: wire %+v, pipeline %+v", s.name, s.got, s.want)
		}
	}

	// The fixture moved what it meant to.
	if st.Memory.Tables[0].Backend != core.BackendDIR24 || st.Memory.Tables[1].Backend != core.BackendTSS {
		t.Errorf("backends %+v, want dir24 then tss", st.Memory.Tables)
	}
	if st.Memory.BudgetBits == 0 || st.Memory.Tables[1].BudgetBits == 0 {
		t.Errorf("budgets did not travel: %+v", st.Memory)
	}
	if st.Microflow.Hits != 1 || st.Megaflow.Hits != 1 {
		t.Errorf("cache hits micro %d mega %d, want 1 and 1", st.Microflow.Hits, st.Megaflow.Hits)
	}
	if st.Tx.Rejected != 1 || st.Lifecycle.ExpiredHard != 1 || st.Lifecycle.Groups != 1 {
		t.Errorf("tx %+v lifecycle %+v, want 1 rejected, 1 hard expiry, 1 group", st.Tx, st.Lifecycle)
	}
	if a := st.Advisor; a.Migrations != 1 || !a.Tables[0].Auto || a.Tables[0].LastReason != "score" || len(a.Tables[0].Candidates) != len(autotune.Schemes) {
		t.Errorf("advisor %+v, want one score migration of auto table 0", a)
	}

	// The printer renders every section.
	var out bytes.Buffer
	if err := st.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"total rules: 64", "M20K blocks", "memory budget:", "[dir24]", "search=", "budget=",
		"microflow cache: 512 entries", "megaflow tier: 256 entries, 1 masks, 1 hits", "memory pressure:", "control plane:",
		"1 hard expiries", "1 groups", "advisor: 1 live migrations", "last reason: score", "* dir24", "score "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestStatsRoundTrip pins the codec: every section survives
// AppendStats→DecodeStats, including counts past the widths the old
// fixed-width replies saturated or truncated at (u16 mask / range /
// wide counts, u32 rule counts).
func TestStatsRoundTrip(t *testing.T) {
	s := &Stats{
		Tables: []core.TableInfo{{ID: 3, Fields: []openflow.FieldID{openflow.FieldIPv4Src, openflow.FieldSrcPort}, Rules: 5_000_000_000}},
		Memory: core.MemoryStats{
			Tables: []core.TableMemory{{Table: 3, Backend: "mbt", Rules: 5_000_000_000, BudgetBits: 1 << 41,
				BackendStats: core.BackendStats{SearchBits: 1 << 40, IndexBits: 77, ActionBits: 24}}},
			TotalBits: 1<<40 + 101, BudgetBits: 1 << 42,
		},
		M20KBlocks: 3,
		Microflow:  core.TierStats{Hits: 1 << 63, Misses: 12345, Bypassed: 9, Entries: 1024, Masks: 1, Armed: true},
		Megaflow:   core.TierStats{Hits: 99, Misses: 7, Entries: 1 << 14, Masks: 5},
		Pressure:   core.PressureStats{Shrinks: 2, Regrows: 1, Level: 1},
		Tx:         core.TxCounters{Txs: 10, Commands: 100, Rejected: 1},
		Lifecycle:  core.LifecycleStats{Flows: 4, ExpiredIdle: 1, ExpiredHard: 2, Sweeps: 3, Removed: 3, RemovedDropped: 1, Groups: 2},
		Advisor: core.AdvisorStats{Migrations: 4, Failed: 1, Tables: []core.TableAdvisorStats{{
			Table: 3, Auto: true, Incumbent: "tss", Rules: 5_000_000_000, Masks: 70_000, Ranges: 70_000, Wide: 70_000,
			MemBits: 1 << 40, Migrations: 2, LastReason: "shape",
			Candidates: []core.AdvisorCandidate{{Backend: "mbt", Eligible: true, Score: 2301.5}, {Backend: "dir24"}},
		}}},
	}
	payload, err := AppendStats(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStats(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("stats round trip:\n in  %+v\n out %+v", s, got)
	}
	if _, err := DecodeStats([]byte("{")); err == nil {
		t.Error("malformed stats should fail")
	}
}

func mustEncodeStats(tb testing.TB, s *Stats) []byte {
	tb.Helper()
	b, err := AppendStats(nil, s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// roundTripStats encodes and decodes s and fails unless the result is
// deeply equal to s.
func roundTripStats(t *testing.T, s *Stats) *Stats {
	t.Helper()
	got, err := DecodeStats(mustEncodeStats(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("stats round trip:\n in  %+v\n out %+v", s, got)
	}
	return got
}

// rejectMalformedStats checks that DecodeStats refuses every payload in
// bad, plus the empty payload and truncations and an extension of good.
func rejectMalformedStats(t *testing.T, good []byte, bad ...string) {
	t.Helper()
	cases := [][]byte{nil, good[:1], good[:len(good)/2], good[:len(good)-1], append(append([]byte(nil), good...), '}')}
	for _, b := range bad {
		cases = append(cases, []byte(b))
	}
	for _, b := range cases {
		if _, err := DecodeStats(b); err == nil {
			t.Errorf("decode of malformed payload %q succeeded", b)
		}
	}
}

// TestMemoryStatsCodecRoundTrip round-trips the memory sections with
// every backend kind and counts past 32 bits.
func TestMemoryStatsCodecRoundTrip(t *testing.T) {
	in := &Stats{
		Tables: []core.TableInfo{{ID: 11, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Rules: 1 << 33}},
		Memory: core.MemoryStats{TotalBits: 1<<40 + 123456789, BudgetBits: 1 << 41, Tables: []core.TableMemory{
			{Table: 0, Backend: "mbt", Rules: 507, BudgetBits: 1 << 41, BackendStats: core.BackendStats{SearchBits: 1 << 40, IndexBits: 77, ActionBits: 24}},
			{Table: 3, Backend: "tss", Rules: 1, BackendStats: core.BackendStats{IndexBits: 72, ActionBits: 32}},
			{Table: 9, Backend: "lineartcam"},
			{Table: 11, Backend: "dir24", Rules: 1 << 33, BackendStats: core.BackendStats{SearchBits: 1 << 29, IndexBits: 3 << 13, ActionBits: 1 << 25}},
		}},
		M20KBlocks: 1 << 20,
	}
	out := roundTripStats(t, in)
	if out.Memory.Tables[3].Rules != 1<<33 || out.Tables[0].Rules != 1<<33 {
		t.Errorf("rule counts truncated: %+v", out.Memory.Tables[3])
	}
}

// TestMemoryStatsCodecRejectsMalformed covers truncation, trailing
// garbage and wrong JSON types in the memory section.
func TestMemoryStatsCodecRejectsMalformed(t *testing.T) {
	good := mustEncodeStats(t, &Stats{Memory: core.MemoryStats{Tables: []core.TableMemory{{Table: 1, Backend: "mbt"}}}})
	rejectMalformedStats(t, good,
		`{"memory":{"TotalBits":"x"}}`,
		`{"memory":{"TotalBits":-1}}`,
		`{"memory":{"Tables":{}}}`,
		`{"m20k_blocks":1.5}`)
}

// TestCacheStatsCodecRoundTrip round-trips the cache sections at the
// extremes of every counter.
func TestCacheStatsCodecRoundTrip(t *testing.T) {
	in := &Stats{
		Microflow: core.TierStats{Hits: 1 << 63, Misses: 12345, Bypassed: ^uint64(0), Entries: 1024, Masks: 1, Armed: true},
		Megaflow:  core.TierStats{Hits: 99999999, Misses: 7, Bypassed: 1, Entries: 1 << 14, Masks: 5},
		Pressure:  core.PressureStats{Shrinks: 2, Regrows: 1, Level: 3},
	}
	if out := roundTripStats(t, in); out.Microflow.Bypassed != ^uint64(0) {
		t.Errorf("microflow bypassed = %d, want max uint64", out.Microflow.Bypassed)
	}
}

// TestCacheStatsCodecRejectsMalformed covers truncation, trailing
// garbage and wrong JSON types in the cache sections.
func TestCacheStatsCodecRejectsMalformed(t *testing.T) {
	good := mustEncodeStats(t, &Stats{Microflow: core.TierStats{Hits: 1}})
	rejectMalformedStats(t, good,
		`{"microflow":{"Hits":-1}}`,
		`{"megaflow":{"Masks":"5"}}`,
		`{"megaflow":[]}`,
		`{"pressure":{"Shrinks":true}}`)
}

// TestAdvisorStatsCodecRoundTrip round-trips the advisor section with
// counts past the u16/u32 widths the fixed-width reply clamped to.
func TestAdvisorStatsCodecRoundTrip(t *testing.T) {
	in := &Stats{Advisor: core.AdvisorStats{Migrations: 42, Failed: 7, Tables: []core.TableAdvisorStats{
		{
			Table: 0, Auto: true, Incumbent: "dir24", LastReason: "score",
			Rules: 5_000_000_000, Masks: 70_000, Ranges: 70_000, Wide: 70_000,
			MemBits: 537 << 20, Migrations: 2,
			Candidates: []core.AdvisorCandidate{{Backend: "mbt", Eligible: true, Score: 2301.5}, {Backend: "dir24", Eligible: true, Score: 92.125}},
		},
		{Table: 5, Incumbent: "tss", LastReason: "none", Rules: 507, Masks: 65535,
			Candidates: []core.AdvisorCandidate{{Backend: "lineartcam"}}},
	}}}
	out := roundTripStats(t, in)
	if r := out.Advisor.Tables[0]; r.Ranges != 70_000 || r.Rules != 5_000_000_000 {
		t.Errorf("advisor counts saturated: ranges %d rules %d", r.Ranges, r.Rules)
	}
}

// TestAdvisorStatsCodecRejectsMalformed covers truncation, trailing
// garbage and wrong JSON types in the advisor section.
func TestAdvisorStatsCodecRejectsMalformed(t *testing.T) {
	good := mustEncodeStats(t, &Stats{Advisor: core.AdvisorStats{Migrations: 1,
		Tables: []core.TableAdvisorStats{{Table: 1, Incumbent: "mbt", LastReason: "none"}}}})
	rejectMalformedStats(t, good,
		`{"advisor":{"Migrations":-1}}`,
		`{"advisor":{"Tables":[{"Table":256}]}}`,
		`{"advisor":{"Tables":[{"Candidates":{}}]}}`,
		`{"advisor":{"Tables":[{"MemBits":"fast"}]}}`)
}

// dialStats serves p and returns a client connected to it.
func dialStats(t *testing.T, p *core.Pipeline) *Client {
	t.Helper()
	addr, stop := startTestServer(t, p)
	t.Cleanup(stop)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// pollStats reads the report and fails unless the part pick selects
// equals want, the pipeline's own value for it.
func pollStats(t *testing.T, c *Client, pick func(*Stats) any, want any) *Stats {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := pick(st); !reflect.DeepEqual(got, want) {
		t.Errorf("wire %+v, pipeline %+v", got, want)
	}
	return st
}

// TestEndToEndMemoryStats runs a mixed-backend pipeline behind a live
// server, installs rules over the wire, and checks the memory section
// equals the pipeline's MemoryStats table for table, with the M20K
// count and total agreeing with MemoryReport.
func TestEndToEndMemoryStats(t *testing.T) {
	p := core.NewPipeline()
	for _, cfg := range []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldVLANID}, Backend: core.BackendMBT},
		{ID: 1, Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldEthDst}, Backend: core.BackendTSS},
		{ID: 2, Fields: []openflow.FieldID{openflow.FieldInPort}, Backend: core.BackendLinearTCAM},
	} {
		if _, err := p.AddTable(cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := dialStats(t, p)
	fms := []FlowMod{
		{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 7)},
			Instructions: []openflow.Instruction{openflow.WriteMetadata(7, ^uint64(0)), openflow.GotoTable(1)},
		}},
		{Op: FlowAdd, Table: 1, Entry: openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldMetadata, 7), openflow.Exact(openflow.FieldEthDst, 0xAABBCCDDEEFF)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(3))},
		}},
		{Op: FlowAdd, Table: 2, Entry: openflow.FlowEntry{
			Priority:     2,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldInPort, 4)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
		}},
	}
	if _, err := c.SendFlowMods(fms); err != nil {
		t.Fatal(err)
	}

	st := pollStats(t, c, func(s *Stats) any { return s.Memory }, p.MemoryStats())
	report := p.MemoryReport()
	if st.Memory.TotalBits != uint64(report.TotalBits) || st.M20KBlocks != report.Blocks {
		t.Errorf("wire total %d bits / %d M20K, MemoryReport %d bits / %d M20K",
			st.Memory.TotalBits, st.M20KBlocks, report.TotalBits, report.Blocks)
	}
	if got := st.Memory.Tables; got[0].Backend != "mbt" || got[1].Backend != "tss" || got[2].Backend != "lineartcam" {
		t.Errorf("backends over the wire: %+v", got)
	}
	if st.TotalRules() != 3 {
		t.Errorf("total rules %d, want 3", st.TotalRules())
	}
}

// TestEndToEndCacheStats runs both cache tiers behind a live server and
// checks the cache sections track the pipeline's own counters.
func TestEndToEndCacheStats(t *testing.T) {
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}}); err != nil {
		t.Fatal(err)
	}
	p.SetCacheSize(256)
	p.SetMegaflowSize(256)
	if _, err := p.Begin().Add(0, &openflow.FlowEntry{
		Priority:     1,
		Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
	}).Commit(); err != nil {
		t.Fatal(err)
	}
	// Same flow twice (microflow hit), then a new flow in the same /8
	// (microflow miss, megaflow hit).
	for _, h := range []openflow.Header{{IPv4Dst: 0x0A000001}, {IPv4Dst: 0x0A000001}, {IPv4Dst: 0x0A0000FE}} {
		p.Execute(&h)
	}

	c := dialStats(t, p)
	pick := func(s *Stats) any { return [3]any{s.Microflow, s.Megaflow, s.Pressure} }
	st := pollStats(t, c, pick, [3]any{p.CacheStats(), p.MegaflowStats(), p.PressureStats()})
	if st.Microflow.Hits != 1 || st.Megaflow.Hits != 1 || st.Megaflow.Masks != 1 {
		t.Errorf("counters did not move as scripted: micro %+v mega %+v", st.Microflow, st.Megaflow)
	}
}

// TestEndToEndAdvisorStats runs an auto-backend pipeline behind a live
// server: the advisor section must mirror the pipeline's AdvisorStats,
// and keep mirroring it after a live migration between two polls.
func TestEndToEndAdvisorStats(t *testing.T) {
	p := core.NewPipeline()
	for _, cfg := range []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Backend: core.BackendAuto},
		{ID: 1, Fields: []openflow.FieldID{openflow.FieldInPort}, Backend: core.BackendTSS},
	} {
		if _, err := p.AddTable(cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := dialStats(t, p)
	var fms []FlowMod
	for i := 0; i < 64; i++ {
		fms = append(fms, FlowMod{Op: FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority:     24,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(i)<<8, 24)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(i) + 1))},
		}})
	}
	if _, err := c.SendFlowMods(fms); err != nil {
		t.Fatal(err)
	}

	pick := func(s *Stats) any { return s.Advisor }
	rep := pollStats(t, c, pick, p.AdvisorStats()).Advisor
	if !rep.Tables[0].Auto || rep.Tables[0].Incumbent != core.BackendMBT {
		t.Fatalf("table 0 row %+v, want auto on mbt", rep.Tables[0])
	}
	if rep.Tables[1].Auto {
		t.Fatalf("table 1 row %+v, want pinned", rep.Tables[1])
	}
	if len(rep.Tables[0].Candidates) != len(autotune.Schemes) {
		t.Fatalf("table 0 has %d candidates, want %d", len(rep.Tables[0].Candidates), len(autotune.Schemes))
	}

	// Force a live migration between polls; the next report reflects it.
	p.SetAutotunePolicy(autotune.Policy{})
	if events := p.AutotuneOnce(); len(events) != 1 {
		t.Fatalf("advisor pass: %v, want one migration", events)
	}
	rep = pollStats(t, c, pick, p.AdvisorStats()).Advisor
	if rep.Migrations != 1 || rep.Failed != 0 || rep.Tables[0].Incumbent != core.BackendDIR24 || rep.Tables[0].LastReason != "score" {
		t.Fatalf("post-migration report %+v, want 1 migration to dir24 (score)", rep)
	}
}
