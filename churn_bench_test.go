package ofmtl_test

import (
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

// Flow-mod churn benchmarks with no equivalent in bench/ (whose
// route_churn workload and wire_flowmods_per_s metric gate plain churn):
// commits under an armed memory budget, lookups on a fully degraded
// switch, and the wire decode path's allocation contract.

// churnPool renders an ACL rule pool for toggling.
func churnPool(b *testing.B, n int) (*core.Pipeline, []openflow.FlowEntry) {
	b.Helper()
	f := filterset.GenerateACL("churnbench", n, filterset.DefaultSeed)
	p, err := core.BuildACL(f)
	if err != nil {
		b.Fatal(err)
	}
	p.Refresh()
	return p, f.FlowEntries()
}

// BenchmarkFlowModChurnBudgeted measures committed commands per second
// through 256-command transactions toggling an ACL rule pool, with a
// memory budget armed (at 2x usage, so every commit passes admission and
// the pressure controller stays inert). Clearing the budget gives the
// unbudgeted figure; the delta is the pure cost of budget admission
// checks on the commit path — the acceptance bar is <= 5% overhead.
func BenchmarkFlowModChurnBudgeted(b *testing.B) {
	p, pool := churnPool(b, 1000)
	p.SetMemoryBudget(2 * p.MemoryStats().TotalBits)
	live := make([]bool, len(pool))
	for i := range live {
		live[i] = true
	}
	const batch = 256
	b.ResetTimer()
	var tx *core.Tx
	for i := 0; i < b.N; i++ {
		if tx == nil {
			tx = p.Begin()
		}
		idx := i % len(pool)
		e := &pool[idx]
		if live[idx] {
			tx.DeleteStrict(0, e.Priority, e.Matches...)
		} else {
			tx.Add(0, e)
		}
		live[idx] = !live[idx]
		if tx.Commands() == batch || i == b.N-1 {
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			tx = nil
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "cmds/s")
	}
}

// BenchmarkLookupUnderPressure measures parallel lookup throughput on a
// fully degraded switch: the budget is frozen at current usage and
// memory-neutral commits step the pressure controller until both cache
// tiers sit at their floors (megaflow 64 entries, microflow 512). The
// delta to the churn-free lookup numbers is the price of operating at
// the bottom of the degradation ladder — shrunken caches thrash, but
// lookups keep completing out of the full tables.
func BenchmarkLookupUnderPressure(b *testing.B) {
	f := filterset.GenerateACL("churnbench", 1000, filterset.DefaultSeed)
	p, err := core.BuildACL(f)
	if err != nil {
		b.Fatal(err)
	}
	trace := traffic.ACLTrace(f, 4096, 0.8, 1)
	p.Refresh()
	p.SetCacheSize(4096)
	p.SetMegaflowSize(1024)
	p.SetMemoryBudget(p.MemoryStats().TotalBits)
	// Step the controller to the bottom of the ladder with neutral
	// replaces (re-adding an installed entry needs no fresh bits, so
	// admission always passes).
	e := f.FlowEntries()[0]
	for i := 0; i < 16; i++ {
		if _, err := p.Begin().Add(0, &e).Commit(); err != nil {
			b.Fatal(err)
		}
	}
	ps := p.PressureStats()
	if ps.Level == 0 {
		b.Fatal("pressure controller never engaged; the benchmark is mislabelled")
	}
	b.ReportMetric(float64(ps.Level), "pressure-level")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h := trace[i%len(trace)]
			p.Execute(&h)
			i++
		}
	})
}

// TestFlowModBatchDecodeZeroAlloc enforces the decode path's allocation
// contract outside the benchmark suite, so a regression fails plain `go
// test`.
func TestFlowModBatchDecodeZeroAlloc(t *testing.T) {
	f := filterset.GenerateACL("wire", 256, filterset.DefaultSeed)
	var fms []ofproto.FlowMod
	for _, e := range f.FlowEntries() {
		fms = append(fms, ofproto.FlowMod{Op: ofproto.FlowAdd, Table: 0, Entry: e})
	}
	payload := ofproto.AppendFlowModBatch(nil, fms)
	var decoded []ofproto.FlowMod
	var ar openflow.EntryArena
	assertZeroAllocs(t, "DecodeFlowModBatchArena", func() {
		var err error
		decoded, err = ofproto.DecodeFlowModBatchArena(payload, decoded, &ar)
		if err != nil {
			t.Fatal(err)
		}
	})
}
