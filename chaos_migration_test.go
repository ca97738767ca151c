//go:build failpoint

package ofmtl_test

// Chaos leg of the auto-backend subsystem: fault injection into both
// migration failpoints — the off-path backend build (one injection
// probe per replayed rule) and the commit boundary (after the build
// succeeded, before the swap) — while concurrent lookups hammer the
// table under -race.
//
// Invariants asserted:
//
//   - a failed migration is a perfect no-op: the incumbent backend keeps
//     serving, the memory accounting (MemoryStats and the paper-model
//     MemoryReport) is byte-identical to before the attempt, and no
//     snapshot was published;
//   - every lookup issued across the failed attempts and the eventual
//     successful migration resolves to the installed output, with no
//     torn state visible to the race detector;
//   - the failure and success telemetry (MigrationStats, per-table
//     migration counters) counts exactly what happened.
import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/core/autotune"
	"ofmtl/internal/cow"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/openflow"
)

// migrationPipeline builds one auto-backend LPM table holding n /24
// prefixes, rule i answering 10.(i>>8).(i&0xff).* with output i+1.
func migrationPipeline(t *testing.T, n int) *core.Pipeline {
	t.Helper()
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID:      0,
		Fields:  []openflow.FieldID{openflow.FieldIPv4Dst},
		Backend: core.BackendAuto,
	}); err != nil {
		t.Fatal(err)
	}
	tx := p.Begin()
	for i := 0; i < n; i++ {
		tx.FlowMod(core.FlowCmd{Op: core.CmdAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority: 24,
			Matches:  []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(i)<<8, 24)},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(i) + 1)),
			},
		}})
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChaosMigrationRollback injects faults into both migration sites
// and requires every failed attempt to be invisible; see the file
// comment for the invariants.
func TestChaosMigrationRollback(t *testing.T) {
	cow.SealForTest(t)
	const rules = 1024
	p := migrationPipeline(t, rules)
	p.SetAutotunePolicy(autotune.Policy{})

	// Concurrent lookers run across every phase: failed builds, failed
	// commits, and the final successful swap.
	var failures atomic.Uint64
	var lookups atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i = (i + 17) % rules {
				select {
				case <-stop:
					return
				default:
				}
				h := openflow.Header{IPv4Dst: uint32(i)<<8 | 9}
				res := p.Execute(&h)
				lookups.Add(1)
				if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != uint32(i)+1 {
					failures.Add(1)
					return
				}
			}
		}(g)
	}

	wantFailed := uint64(0)
	siteHits := map[string]uint64{}
	for _, phase := range []struct{ name, site string }{
		{"build", failpoint.SiteMigrationBuild},
		{"commit", failpoint.SiteMigrationCommit},
	} {
		if err := failpoint.Arm(phase.site, "error:1"); err != nil {
			t.Fatal(err)
		}
		memBefore := p.MemoryStats()
		repBefore := p.MemoryReport()
		verBefore := p.SnapshotVersion()

		events := p.AutotuneOnce()
		wantFailed++

		siteHits[phase.name] = failpoint.Hits(phase.site) // Disarm discards the counter
		failpoint.Disarm(phase.site)
		if len(events) != 0 {
			t.Fatalf("%s-fault pass reported migrations: %v", phase.name, events)
		}
		if ms := p.MigrationStats(); ms.Migrations != 0 || ms.Failed != wantFailed {
			t.Fatalf("%s-fault pass: stats %+v, want 0 completed / %d failed", phase.name, ms, wantFailed)
		}
		if got := p.AdvisorStats().Tables[0].Incumbent; got != core.BackendMBT {
			t.Fatalf("%s-fault pass left the table on %s, want the mbt incumbent", phase.name, got)
		}
		if v := p.SnapshotVersion(); v != verBefore {
			t.Fatalf("%s-fault pass published a snapshot (version %d -> %d); a failed migration must not", phase.name, verBefore, v)
		}
		if memAfter := p.MemoryStats(); !reflect.DeepEqual(memAfter, memBefore) {
			t.Fatalf("%s-fault pass changed the memory accounting:\nbefore %+v\nafter  %+v", phase.name, memBefore, memAfter)
		}
		if repAfter := p.MemoryReport(); !reflect.DeepEqual(repAfter, repBefore) {
			t.Fatalf("%s-fault pass changed the memory report:\nbefore %+v\nafter  %+v", phase.name, repBefore, repAfter)
		}
	}
	buildHits, commitHits := siteHits["build"], siteHits["commit"]
	failpoint.DisarmAll()

	// Faults cleared: the same advisor pass now completes the migration
	// while the lookers keep running.
	events := p.AutotuneOnce()
	if len(events) != 1 || events[0].To != core.BackendDIR24 {
		t.Fatalf("post-fault advisor pass: %v, want one migration to dir24", events)
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d lookups failed across the fault phases", n)
	}
	if ms := p.MigrationStats(); ms.Migrations != 1 || ms.Failed != wantFailed {
		t.Fatalf("final stats %+v, want 1 completed / %d failed", ms, wantFailed)
	}
	// Every prefix still resolves on the new backend.
	for i := 0; i < rules; i++ {
		h := openflow.Header{IPv4Dst: uint32(i)<<8 | 9}
		res := p.Execute(&h)
		if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != uint32(i)+1 {
			t.Fatalf("prefix %d after migration: %+v, want output %d", i, res, i+1)
		}
	}
	t.Logf("chaos-migration: %d lookups across %d build-site hits, %d commit-site hits",
		lookups.Load(), buildHits, commitHits)
	if lookups.Load() == 0 {
		t.Fatal("lookers never ran")
	}
	if buildHits == 0 || commitHits == 0 {
		t.Fatalf("failpoints unexercised: build=%d commit=%d hits", buildHits, commitHits)
	}
}
