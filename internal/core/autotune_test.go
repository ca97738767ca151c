package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmtl/internal/core/autotune"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// slash24Entries returns n /24 prefixes of the destination address, rule
// i covering i<<8 through i<<8|255 and outputting port i+1.
func slash24Entries(n int) []openflow.FlowEntry {
	out := make([]openflow.FlowEntry, n)
	for i := range out {
		out[i] = openflow.FlowEntry{
			Priority: 24,
			Matches:  []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(i)<<8, 24)},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(i) + 1)),
			},
		}
	}
	return out
}

// newAutotunePipeline builds a pipeline with one auto-backend table over
// fields and commits entries to it in one transaction.
func newAutotunePipeline(fields []openflow.FieldID, entries []openflow.FlowEntry) (*Pipeline, error) {
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{ID: 0, Fields: fields, Backend: BackendAuto}); err != nil {
		return nil, err
	}
	tx := p.Begin()
	for _, e := range entries {
		tx.FlowMod(FlowCmd{Op: CmdAdd, Table: 0, Entry: e})
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return p, nil
}

// autotunePipeline is newAutotunePipeline, failing t on an error.
func autotunePipeline(t *testing.T, fields []openflow.FieldID, entries []openflow.FlowEntry) *Pipeline {
	t.Helper()
	p, err := newAutotunePipeline(fields, entries)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// autotuneLPMPipeline builds a pipeline with one auto-backend table
// shaped for LPM (single 32-bit prefix field) holding slash24Entries(n).
func autotuneLPMPipeline(t *testing.T, n int) *Pipeline {
	t.Helper()
	return autotunePipeline(t, lpmTableConfig().Fields, slash24Entries(n))
}

// checkLPMLookup verifies that rule i still answers its covered address.
func checkLPMLookup(p *Pipeline, i int) error {
	h := &openflow.Header{IPv4Dst: uint32(i)<<8 | 7}
	res := p.Execute(h)
	if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != uint32(i)+1 {
		return fmt.Errorf("prefix %d: got %+v, want output %d", i, res, i+1)
	}
	return nil
}

// TestAutotuneMigratesLPMToDIR24 is the subsystem's acceptance test: an
// LPM-shaped auto table starts on mbt, and one advisor pass under a
// zero-hysteresis policy migrates it live to dir24 — the scheme the
// cost model prefers for pure prefix tables — while concurrent lookups
// keep resolving correctly throughout the swap. Exactly one snapshot
// publish covers the migration, so both cache tiers invalidate in a
// single version bump.
func TestAutotuneMigratesLPMToDIR24(t *testing.T) {
	const rules = 512
	p := autotuneLPMPipeline(t, rules)
	tbl := p.tables[0]
	if got := tbl.Backend(); got != BackendMBT {
		t.Fatalf("auto table starts on %s, want %s", got, BackendMBT)
	}
	p.SetAutotunePolicy(autotune.Policy{})

	// Hammer lookups from several goroutines across the swap; every
	// result must keep naming the installed output port.
	var failures atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i = (i + 13) % rules {
				select {
				case <-stop:
					return
				default:
				}
				if err := checkLPMLookup(p, i); err != nil {
					failures.Add(1)
					return
				}
			}
		}(g)
	}

	v0 := p.SnapshotVersion()
	events := p.AutotuneOnce()
	v1 := p.SnapshotVersion()
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d lookups failed during the migration", n)
	}
	if len(events) != 1 {
		t.Fatalf("advisor performed %d migrations, want 1 (%v)", len(events), events)
	}
	ev := events[0]
	if ev.From != BackendMBT || ev.To != BackendDIR24 || ev.Reason != "score" {
		t.Fatalf("migration %+v, want mbt -> dir24 (score)", ev)
	}
	if got := tbl.Backend(); got != BackendDIR24 {
		t.Fatalf("incumbent is %s after the migration, want %s", got, BackendDIR24)
	}
	if d := v1 - v0; d != 1 {
		t.Fatalf("migration published %d snapshots, want exactly 1", d)
	}
	if ms := p.MigrationStats(); ms.Migrations != 1 || ms.Failed != 0 {
		t.Fatalf("migration stats %+v, want 1 completed / 0 failed", ms)
	}
	// The new backend answers everything the old one did.
	for i := 0; i < rules; i++ {
		if err := checkLPMLookup(p, i); err != nil {
			t.Fatal(err)
		}
	}
	// Under the default hysteresis (margin + dwell) a second pass holds
	// dir24: measurement noise alone must not flap the table back.
	p.SetAutotunePolicy(autotune.DefaultPolicy())
	if events := p.AutotuneOnce(); len(events) != 0 {
		t.Fatalf("second advisor pass migrated again: %v", events)
	}
}

// TestAutotuneHysteresisHoldsIncumbent pins the margin gate: under the
// default-style policy with an enormous margin no challenger can clear,
// the advisor leaves the incumbent serving however much better the
// model scores the alternatives.
func TestAutotuneHysteresisHoldsIncumbent(t *testing.T) {
	p := autotuneLPMPipeline(t, 64)
	p.SetAutotunePolicy(autotune.Policy{Margin: 1e12})
	if events := p.AutotuneOnce(); len(events) != 0 {
		t.Fatalf("advisor migrated through a 1e12 margin: %v", events)
	}
	if got := p.tables[0].Backend(); got != BackendMBT {
		t.Fatalf("incumbent changed to %s under hysteresis", got)
	}
}

// TestAutotunePinnedTablesUntouched verifies the advisor never migrates
// a table pinned to a concrete backend, even when the model scores
// another scheme far better.
func TestAutotunePinnedTablesUntouched(t *testing.T) {
	p := NewPipeline()
	cfg := lpmTableConfig()
	cfg.Backend = BackendMBT
	if _, err := p.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(41)
	tx := p.Begin()
	for i := 0; i < 64; i++ {
		tx.FlowMod(FlowCmd{Op: CmdAdd, Table: 0, Entry: *randomLPMEntry(rng, 1+i%6)})
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.SetAutotunePolicy(autotune.Policy{})
	if events := p.AutotuneOnce(); len(events) != 0 {
		t.Fatalf("advisor migrated a pinned table: %v", events)
	}
	if got := p.tables[0].Backend(); got != BackendMBT {
		t.Fatalf("pinned table now runs %s", got)
	}
}

// TestAutotuneShapeMigratesOffDIR24 pins the shape escape hatch, both
// directions. A two-field table whose rules only constrain the
// designated prefix field is dir24-eligible and the advisor migrates it
// there (through the auto constructor — plain dir24 would reject the
// multi-field shape). When a rule later constrains the second field,
// the insert migrates the table back to mbt inline instead of erroring,
// and the new rule matches.
func TestAutotuneShapeMigratesOffDIR24(t *testing.T) {
	p := autotunePipeline(t, []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldIPv4Src}, slash24Entries(128))
	tbl := p.tables[0]
	p.SetAutotunePolicy(autotune.Policy{})
	events := p.AutotuneOnce()
	if len(events) != 1 || events[0].To != BackendDIR24 {
		t.Fatalf("advisor pass: %v, want one migration to dir24", events)
	}
	if got := tbl.Backend(); got != BackendDIR24 {
		t.Fatalf("incumbent %s, want dir24", got)
	}

	// A rule constraining the non-designated field arrives: dir24 can no
	// longer serve the table, so the insert migrates off inline.
	wide := openflow.FlowEntry{
		Priority: 99,
		Matches: []openflow.Match{
			openflow.Prefix(openflow.FieldIPv4Dst, 5<<8, 24),
			openflow.Prefix(openflow.FieldIPv4Src, 0xC0000000, 8),
		},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(4242)),
		},
	}
	// Rejected after the inline migration, the commit swaps dir24 back:
	// same backend, same memory report, the migration not counted.
	before, reason := p.MemoryReport(), tbl.lastReason.Load()
	tx := p.Begin()
	tx.FlowMod(FlowCmd{Op: CmdAdd, Table: 0, Entry: wide})
	absent := wide
	absent.Priority = 98
	tx.FlowMod(FlowCmd{Op: CmdRemoveExact, Table: 0, Entry: absent})
	if _, err := tx.Commit(); err == nil {
		t.Fatal("a commit removing an absent entry must be rejected")
	}
	if got := tbl.Backend(); got != BackendDIR24 || tbl.migrations.Load() != 1 || tbl.lastReason.Load() != reason {
		t.Fatalf("rejected commit left the table on %s after %d migrations (reason %d -> %d)", got, tbl.migrations.Load(), reason, tbl.lastReason.Load())
	}
	if after := p.MemoryReport(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected commit moved the memory report:\n%v\n%v", before.Components, after.Components)
	}
	if err := checkLPMLookup(p, 5); err != nil {
		t.Fatal(err)
	}

	tx = p.Begin()
	tx.FlowMod(FlowCmd{Op: CmdAdd, Table: 0, Entry: wide})
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("wide-rule insert on an auto dir24 table must migrate, not error: %v", err)
	}
	if got := tbl.Backend(); got != BackendMBT {
		t.Fatalf("incumbent %s after the wide insert, want mbt", got)
	}
	if got := MigrateReasonName(tbl.lastReason.Load()); got != "shape" {
		t.Fatalf("last migration reason %q, want shape", got)
	}
	if n := tbl.migrations.Load(); n != 2 {
		t.Fatalf("table counted %d migrations, want 2", n)
	}
	// The wide rule outranks the /24 on its designated slice.
	h := &openflow.Header{IPv4Dst: 5<<8 | 1, IPv4Src: 0xC0A80001}
	res := p.Execute(h)
	if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 4242 {
		t.Fatalf("wide rule lookup: %+v, want output 4242", res)
	}
	// Narrow lookups still resolve to their prefixes.
	for i := 0; i < 128; i++ {
		h := &openflow.Header{IPv4Dst: uint32(i)<<8 | 7}
		res := p.Execute(h)
		want := uint32(i) + 1
		if i == 5 {
			// 10.5.*.* with a non-0xC0... source still hits the /24.
			h.IPv4Src = 0x0A000001
			res = p.Execute(h)
		}
		if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != want {
			t.Fatalf("prefix %d after migrate-off: %+v, want output %d", i, res, want)
		}
	}
}

// TestAutotuneShapeCounters pins the advisor's rule-shape signals: mask
// signatures, range-carrying rules and wide (dir24-blocking) rules all
// track inserts and removes exactly.
func TestAutotuneShapeCounters(t *testing.T) {
	cfg := TableConfig{
		ID:      0,
		Fields:  []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldDstPort},
		Backend: BackendAuto,
	}
	tbl, err := NewLookupTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := func(plen, prio int) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority:     prio,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, plen)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
		}
	}
	ranged := &openflow.FlowEntry{
		Priority: 7,
		Matches: []openflow.Match{
			openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
			openflow.Range(openflow.FieldDstPort, 80, 443),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(2))},
	}
	check := func(step string, masks, ranges, wide int) {
		t.Helper()
		if len(tbl.maskSigs) != masks || tbl.rangeRules != ranges || tbl.wideRules != wide {
			t.Fatalf("%s: masks=%d ranges=%d wide=%d, want %d/%d/%d",
				step, len(tbl.maskSigs), tbl.rangeRules, tbl.wideRules, masks, ranges, wide)
		}
	}

	a, b := prefix(24, 1), prefix(16, 2)
	for _, e := range []*openflow.FlowEntry{a, b} {
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	check("two prefixes", 2, 0, 0)
	if err := tbl.Insert(prefix(24, 3)); err != nil {
		t.Fatal(err)
	}
	check("duplicate mask shape", 2, 0, 0)
	if err := tbl.Insert(ranged); err != nil {
		t.Fatal(err)
	}
	// The port range constrains a non-designated field, so the rule is
	// both ranged and wide.
	check("ranged rule", 3, 1, 1)
	if tbl.eligibleFor(BackendDIR24) {
		t.Fatal("wide rule must make the table dir24-ineligible")
	}

	// Removing entries unwinds every counter symmetrically.
	if err := tbl.Remove(ranged); err != nil {
		t.Fatal(err)
	}
	check("ranged rule removed", 2, 0, 0)
	if !tbl.eligibleFor(BackendDIR24) {
		t.Fatal("table should regain dir24 eligibility once the wide rule leaves")
	}
	if err := tbl.Remove(a); err != nil {
		t.Fatal(err)
	}
	// One /24 remains (the priority-3 duplicate shape), so its mask
	// signature stays live.
	check("one of two /24s removed", 2, 0, 0)
	if err := tbl.Remove(b); err != nil {
		t.Fatal(err)
	}
	check("the /16 removed", 1, 0, 0)
}

// TestAdvisorStatsReport pins the report surface: one auto LPM table and
// one pinned ACL table, with the auto flag, incumbents, rule counts,
// eligibility vector and scores all populated.
func TestAdvisorStatsReport(t *testing.T) {
	p := NewPipeline()
	lpm := lpmTableConfig()
	lpm.Backend = BackendAuto
	if _, err := p.AddTable(lpm); err != nil {
		t.Fatal(err)
	}
	acl := aclTableConfig()
	acl.ID = 1
	acl.Backend = BackendTSS
	if _, err := p.AddTable(acl); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(97)
	tx := p.Begin()
	for i := 0; i < 32; i++ {
		tx.FlowMod(FlowCmd{Op: CmdAdd, Table: 0, Entry: *randomLPMEntry(rng, 1+i%6)})
		tx.FlowMod(FlowCmd{Op: CmdAdd, Table: 1, Entry: *randomEntry(rng, 1+i%6)})
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rep := p.AdvisorStats()
	if len(rep.Tables) != 2 {
		t.Fatalf("report covers %d tables, want 2", len(rep.Tables))
	}
	t0, t1 := rep.Tables[0], rep.Tables[1]
	if !t0.Auto || t0.Incumbent != BackendMBT {
		t.Fatalf("table 0 row %+v, want auto on mbt", t0)
	}
	if t1.Auto || t1.Incumbent != BackendTSS {
		t.Fatalf("table 1 row %+v, want pinned tss", t1)
	}
	if t0.Rules != 32 || t1.Rules != 32 {
		t.Fatalf("rule counts %d/%d, want 32/32", t0.Rules, t1.Rules)
	}
	if t0.MemBits == 0 || t1.MemBits == 0 {
		t.Fatal("memory signals unpopulated")
	}
	if len(t0.Candidates) != len(autotune.Schemes) || len(t1.Candidates) != len(autotune.Schemes) {
		t.Fatalf("candidate vectors %d/%d, want %d", len(t0.Candidates), len(t1.Candidates), len(autotune.Schemes))
	}
	for _, c := range t0.Candidates {
		if !c.Eligible {
			t.Fatalf("LPM table candidate %+v, want every scheme eligible", c)
		}
		if c.Score <= 0 {
			t.Fatalf("LPM table candidate %+v, want a positive score", c)
		}
	}
	for _, c := range t1.Candidates {
		if c.Backend == BackendDIR24 {
			if c.Eligible {
				t.Fatal("dir24 marked eligible for the 5-field ACL table")
			}
		} else if !c.Eligible {
			t.Fatalf("ACL table candidate %+v, want eligible", c)
		}
	}

	// After a forced migration, the report reflects the new incumbent
	// and the migration counters.
	p.SetAutotunePolicy(autotune.Policy{})
	if events := p.AutotuneOnce(); len(events) != 1 {
		t.Fatalf("advisor pass: %v, want one migration", events)
	}
	rep = p.AdvisorStats()
	if rep.Migrations != 1 || rep.Tables[0].Migrations != 1 {
		t.Fatalf("report migrations %d (table row %d), want 1/1", rep.Migrations, rep.Tables[0].Migrations)
	}
	if rep.Tables[0].Incumbent != BackendDIR24 || rep.Tables[0].LastReason != "score" {
		t.Fatalf("table 0 row %+v after migration, want dir24 (score)", rep.Tables[0])
	}
}

// advisorShape is one table whose advisor pick TestAdvisorPicks pins.
type advisorShape struct {
	name string
	p    *Pipeline
	id   openflow.TableID
	want string
}

// advisorShapes builds, once per test binary, every table shape the root
// package's BenchmarkLookupPerBackend times, each on auto (so on mbt):
// the 1000-rule ACL, the 10k-prefix LPM table, the /24 tables of the
// tests above and the four tables of the gozb/coza prototype. want is
// the scheme that benchmark measures fastest on the shape. The shapes are
// built once because the prototype alone takes over a second, and
// TestAdvisorPicks runs repeatedly in CI.
var advisorShapes = sync.OnceValues(func() ([]advisorShape, error) {
	var out []advisorShape
	for _, s := range []struct {
		name    string
		fields  []openflow.FieldID
		entries []openflow.FlowEntry
		want    string
	}{
		{"acl", aclTableConfig().Fields, filterset.GenerateACL("bench", 1000, filterset.DefaultSeed).FlowEntries(), BackendMBT},
		{"lpm", lpmTableConfig().Fields, filterset.GenerateLPM("bench", 10_000, filterset.DefaultSeed).FlowEntries(), BackendDIR24},
		{"slash24x512", lpmTableConfig().Fields, slash24Entries(512), BackendDIR24},
		{"slash24x128", []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldIPv4Src}, slash24Entries(128), BackendDIR24},
	} {
		p, err := newAutotunePipeline(s.fields, s.entries)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, advisorShape{s.name, p, 0, s.want})
	}
	mac, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
	if err != nil {
		return nil, err
	}
	rt, err := filterset.GenerateRoute("coza", filterset.DefaultSeed)
	if err != nil {
		return nil, err
	}
	proto, err := BuildPrototypeWith(mac, rt, BackendAuto)
	if err != nil {
		return nil, err
	}
	for id, want := range []string{BackendMBT, BackendTSS, BackendTSS, BackendMBT} {
		out = append(out, advisorShape{fmt.Sprintf("proto-t%d", id), proto, openflow.TableID(id), want})
	}
	return out, nil
})

// TestAdvisorPicks pins the advisor's choice under the default model and
// policy for every shape in advisorShapes: the pick scores best among
// the eligible schemes, and a table still on mbt migrates to it in one
// pass unless the pick is mbt itself. The choice reads no clock but the
// dwell's, so it is the same on a loaded machine.
func TestAdvisorPicks(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded and deterministic; building the prototype under the race detector buys nothing")
	}
	shapes, err := advisorShapes()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shapes {
		s.p.mu.Lock()
		tbl := s.p.tables[s.id]
		d := s.p.adviseLocked(tbl, time.Now().UnixNano())
		inc := tbl.backend.Kind()
		s.p.mu.Unlock()
		if inc != BackendMBT {
			t.Fatalf("%s: auto table on %s before any advisor pass", s.name, inc)
		}
		if d.Best != s.want || d.Migrate != (s.want != BackendMBT) {
			t.Errorf("%s: advisor decided %+v, want %s", s.name, d, s.want)
		}
	}
}
