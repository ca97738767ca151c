package ofmtl_test

// Benchmarks for the auto-backend subsystem. Two questions matter in
// production:
//
//   - steady state: once the advisor has settled, does an auto table
//     look up as fast (and account the same memory) as the best pinned
//     scheme? BenchmarkLookupAutoVsPinned answers by running the same
//     LPM workload through a settled auto table and every explicit pin.
//   - during migration: what do concurrent lookups pay while a
//     100k-rule table is being rebuilt and swapped under them, and how
//     long does the swap take end to end? BenchmarkAutoMigration drives
//     repeated live migrations and reports the sampled lookup p50/p99
//     alongside the per-migration wall time.

import (
	"sort"
	"testing"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/core/autotune"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

// BenchmarkLookupAutoVsPinned runs the 10k-rule LPM workload through a
// settled auto table and through each explicit backend pin. The auto
// row should match the dir24 row — the advisor's pick for this shape —
// in both ns/op and the membits metric; any gap would be advisor
// overhead on the lookup path, which has none: the advisor scores the
// rule set and never touches a lookup.
func BenchmarkLookupAutoVsPinned(b *testing.B) {
	lpm := filterset.GenerateLPM("bench", 10_000, filterset.DefaultSeed)
	entries := lpm.FlowEntries()
	fields := []openflow.FieldID{openflow.FieldIPv4Dst}
	trace := traffic.LPMTrace(lpm, 4096, 0.9, 1)
	for _, kind := range append([]string{core.BackendAuto}, core.BackendKinds()...) {
		p := buildBackendPipeline(b, kind, fields, entries)
		if kind == core.BackendAuto {
			// Settle the advisor before timing: one pass under the
			// no-hysteresis policy migrates the fresh mbt table to the
			// scheme the scores pick (dir24 for this shape).
			p.SetAutotunePolicy(autotune.Policy{})
			if events := p.AutotuneOnce(); len(events) != 1 {
				b.Fatalf("auto settle pass: %v, want one migration", events)
			}
		}
		b.Run("lpm/"+kind, func(b *testing.B) {
			benchPipeline(b, p, trace)
			b.ReportMetric(float64(p.MemoryStats().TotalBits), "membits")
		})
	}
}

// BenchmarkAutoMigration measures live migration under load at the
// 100k-rule scale. Each iteration forces a full off-path rebuild cycle
// on a table the advisor has settled on dir24:
//
//  1. a rule constraining a second field arrives — dir24 can no longer
//     serve the shape, so the commit migrates the table off inline
//     (reason "shape");
//  2. the rule is removed, and an advisor pass migrates the table back
//     to dir24 (reason "score").
//
// Both legs replay the full 100k-rule store into a fresh backend and
// swap it at a commit boundary while a sampler goroutine times every
// concurrent Execute. Reported metrics: p50-ns/p99-ns over all lookups
// sampled while migrations were in flight, and migrate-ms, the mean
// wall time of one complete build-and-swap.
func BenchmarkAutoMigration(b *testing.B) {
	const rules = 100_000
	lpm := filterset.GenerateLPM("bench", rules, filterset.DefaultSeed)
	entries := lpm.FlowEntries()
	trace := traffic.LPMTrace(lpm, 4096, 0.9, 1)
	// Two match fields so a src-constraining rule can evict dir24; the
	// LPM rules themselves constrain only the destination, so the shape
	// stays dir24-eligible until the wide rule lands.
	fields := []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldIPv4Src}
	p := buildBackendPipeline(b, core.BackendAuto, fields, entries)
	p.SetAutotunePolicy(autotune.Policy{})
	if events := p.AutotuneOnce(); len(events) != 1 || events[0].To != core.BackendDIR24 {
		b.Fatalf("settle pass: %v, want one migration to dir24", events)
	}

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

	// The sampler times every Execute it issues for the benchmark's
	// whole lifetime — by construction a migration is in flight for
	// almost all of it, so the percentiles are tail latency under
	// migration, not steady state.
	stop := make(chan struct{})
	latCh := make(chan []time.Duration, 1)
	go func() {
		lats := make([]time.Duration, 0, 1<<18)
		h := new(openflow.Header)
		for i := 0; ; i++ {
			select {
			case <-stop:
				latCh <- lats
				return
			default:
			}
			*h = trace[i%len(trace)]
			t0 := time.Now()
			p.Execute(h)
			lats = append(lats, time.Since(t0))
		}
	}()

	before := p.MigrationStats()
	var migrateWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := p.Begin()
		tx.FlowMod(core.FlowCmd{Op: core.CmdAdd, Table: 0, Entry: wide})
		t0 := time.Now()
		if _, err := tx.Commit(); err != nil {
			b.Fatalf("wide insert (inline shape migration): %v", err)
		}
		migrateWall += time.Since(t0)

		tx = p.Begin()
		tx.FlowMod(core.FlowCmd{Op: core.CmdRemoveExact, Table: 0, Entry: wide})
		if _, err := tx.Commit(); err != nil {
			b.Fatalf("wide remove: %v", err)
		}

		t0 = time.Now()
		events := p.AutotuneOnce()
		migrateWall += time.Since(t0)
		if len(events) != 1 || events[0].To != core.BackendDIR24 {
			b.Fatalf("advisor pass %d: %v, want one migration back to dir24", i, events)
		}
	}
	b.StopTimer()
	close(stop)
	lats := <-latCh

	after := p.MigrationStats()
	migrations := after.Migrations - before.Migrations
	if migrations == 0 {
		b.Fatal("benchmark loop performed no migrations")
	}
	if after.Failed != before.Failed {
		b.Fatalf("%d migrations failed during the benchmark", after.Failed-before.Failed)
	}
	if len(lats) == 0 {
		b.Fatal("sampler recorded no lookups")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := len(lats) * 99 / 100
	if p99 >= len(lats) {
		p99 = len(lats) - 1
	}
	b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lats[p99].Nanoseconds()), "p99-ns")
	b.ReportMetric(migrateWall.Seconds()*1e3/float64(migrations), "migrate-ms")
}
