package ofmtl_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/mbt"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

// Allocation regression tests: the dense-array engine's steady-state hot
// paths must stay off the heap, so future changes cannot silently
// reintroduce per-packet allocations. testing.AllocsPerRun averages over
// enough rounds that pooled-buffer warmup noise vanishes.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc regression measured without -race")
	}
	// Warm the pools and the outcome table outside the measured region.
	for i := 0; i < 64; i++ {
		f()
	}
	if n := testing.AllocsPerRun(512, f); n != 0 {
		t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, n)
	}
}

// TestExecuteZeroAlloc covers the full pipeline walk for all three
// benchmark workloads (exact, prefix and mixed-method tables), the ACL
// workload under the tss and lineartcam backends, and the 4-table
// prototype, whose walks cross tables of one and two fields and so reuse
// a lookup scratch sized for a wider table.
func TestExecuteZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("filter generation is not short")
	}
	aclFields := []openflow.FieldID{
		openflow.FieldIPv4Src,
		openflow.FieldIPv4Dst,
		openflow.FieldSrcPort,
		openflow.FieldDstPort,
		openflow.FieldIPProto,
	}
	aclOn := func(kind string) func(testing.TB) (*core.Pipeline, []openflow.Header, error) {
		return func(tb testing.TB) (*core.Pipeline, []openflow.Header, error) {
			f := filterset.GenerateACL("alloc", 400, filterset.DefaultSeed)
			return buildBackendPipeline(tb, kind, aclFields, f.FlowEntries()), traffic.ACLTrace(f, 256, 0.8, 1), nil
		}
	}
	type workload struct {
		name  string
		build func(testing.TB) (*core.Pipeline, []openflow.Header, error)
	}
	workloads := []workload{
		{"mac", func(testing.TB) (*core.Pipeline, []openflow.Header, error) {
			f, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
			if err != nil {
				return nil, nil, err
			}
			p, err := core.BuildMAC(f, 0)
			return p, traffic.MACTrace(f, 256, 0.9, 1), err
		}},
		{"route", func(testing.TB) (*core.Pipeline, []openflow.Header, error) {
			f, err := filterset.GenerateRoute("bbra", filterset.DefaultSeed)
			if err != nil {
				return nil, nil, err
			}
			p, err := core.BuildRoute(f, 0)
			return p, traffic.RouteTrace(f, 256, 0.9, 1), err
		}},
		{"acl", func(testing.TB) (*core.Pipeline, []openflow.Header, error) {
			f := filterset.GenerateACL("alloc", 400, filterset.DefaultSeed)
			p, err := core.BuildACL(f)
			return p, traffic.ACLTrace(f, 256, 0.8, 1), err
		}},
		{"acl-tss", aclOn(core.BackendTSS)},
		{"acl-lineartcam", aclOn(core.BackendLinearTCAM)},
		{"prototype", func(testing.TB) (*core.Pipeline, []openflow.Header, error) {
			mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
			if err != nil {
				return nil, nil, err
			}
			route, err := filterset.GenerateRoute("bbra", filterset.DefaultSeed)
			if err != nil {
				return nil, nil, err
			}
			p, err := core.BuildPrototype(mac, route)
			// Alternate MAC packets (tables 0 and 1) with routed ones on a
			// VLAN the MAC tables miss (tables 0, 2 and 3).
			macs, routes := traffic.MACTrace(mac, 128, 0.9, 1), traffic.RouteTrace(route, 128, 0.9, 1)
			var trace []openflow.Header
			for i := range routes {
				routes[i].VLANID = 4010
				trace = append(trace, macs[i], routes[i])
			}
			return p, trace, err
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, trace, err := w.build(t)
			if err != nil {
				t.Fatal(err)
			}
			p.Refresh()
			// The header lives outside the measured closure: Execute takes
			// it by pointer through interface methods, so a closure-local
			// header would escape and the measurement would count the
			// caller's allocation, not the pipeline's.
			h := new(openflow.Header)
			i := 0
			assertZeroAllocs(t, "Pipeline.Execute/"+w.name, func() {
				*h = trace[i%len(trace)]
				p.Execute(h)
				i++
			})
		})
	}
}

// TestExecuteBatchZeroAlloc pins the batch path allocation-free: with the
// reply slice reused through ExecuteBatchInto, at 1 and 4 workers, cache
// on or off. The walk legs run the grouped miss walk on the MAC pair, a
// 30 k-prefix LPM table, the 5-field ACL and the 4-table prototype; cache
// fills allocate, so the cached leg uses a small flow population warmed
// outside the measurement.
func TestExecuteBatchZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("filter generation is not short")
	}
	mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	route, err := filterset.GenerateRoute("bbra", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	macWalk := func() (*core.Pipeline, []openflow.Header, error) {
		p, err := core.BuildMAC(mac, 0)
		return p, traffic.MACTrace(mac, 64, 0.9, 1), err
	}
	for _, leg := range []struct {
		name   string
		cached bool
		build  func() (*core.Pipeline, []openflow.Header, error)
	}{
		{"walk", false, macWalk},
		{"cached", true, macWalk},
		{"lpm-walk", false, func() (*core.Pipeline, []openflow.Header, error) {
			f := filterset.GenerateLPM("alloc", 30000, filterset.DefaultSeed)
			p := buildBackendPipeline(t, "", []openflow.FieldID{openflow.FieldIPv4Dst}, f.FlowEntries())
			return p, traffic.LPMTrace(f, 1024, 0.9, 1), nil
		}},
		{"acl-walk", false, func() (*core.Pipeline, []openflow.Header, error) {
			f := filterset.GenerateACL("alloc", 400, filterset.DefaultSeed)
			p, err := core.BuildACL(f)
			return p, traffic.ACLTrace(f, 1024, 0.8, 1), err
		}},
		{"prototype-walk", false, func() (*core.Pipeline, []openflow.Header, error) {
			p, err := core.BuildPrototype(mac, route)
			// MAC packets (tables 0 and 1) and routed ones on a VLAN the
			// MAC tables miss (tables 0, 2 and 3), so groups split by table.
			macs, routes := traffic.MACTrace(mac, 512, 0.9, 1), traffic.RouteTrace(route, 512, 0.9, 1)
			var trace []openflow.Header
			for i := range routes {
				routes[i].VLANID = 4010
				trace = append(trace, macs[i], routes[i])
			}
			return p, trace, err
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			p, trace, err := leg.build()
			if err != nil {
				t.Fatal(err)
			}
			if leg.cached {
				p.SetCacheSize(1 << 14)
			}
			p.Refresh()
			const batch = 128
			hs := make([]*openflow.Header, batch)
			scratch := make([]openflow.Header, batch)
			var res []core.Result
			for _, workers := range []int{1, 4} {
				p.SetWorkers(workers)
				i := 0
				assertZeroAllocs(t, "Pipeline.ExecuteBatchInto/"+leg.name, func() {
					for j := range hs {
						scratch[j] = trace[(i*batch+j)%len(trace)]
						hs[j] = &scratch[j]
					}
					res = p.ExecuteBatchInto(hs, res)
					i++
				})
			}
		})
	}
}

// TestExecuteWideOutcomeZeroAlloc pins the interning of outcomes of any
// shape: an 8-table goto chain ending in an all-group of three output
// buckets, one of them a port at or above 2^31. Execute and
// ExecuteBatchInto, at 1 and 4 workers, with the cache tiers off and on,
// allocate nothing per packet once warm, and every call returns the same
// Outputs and TablesVisited slices.
func TestExecuteWideOutcomeZeroAlloc(t *testing.T) {
	const tables = 8
	wantOuts := []uint32{1, 2, 0x80000001}
	p := core.NewPipeline()
	if err := p.AddGroup(core.Group{ID: 1, Type: core.GroupAll, Buckets: []core.Bucket{
		{Actions: []openflow.Action{openflow.Output(wantOuts[0])}},
		{Actions: []openflow.Action{openflow.Output(wantOuts[1])}},
		{Actions: []openflow.Action{openflow.Output(wantOuts[2])}},
	}}); err != nil {
		t.Fatal(err)
	}
	for id := openflow.TableID(0); id < tables; id++ {
		tbl, err := p.AddTable(core.TableConfig{ID: id, Fields: []openflow.FieldID{openflow.FieldIPProto}})
		if err != nil {
			t.Fatal(err)
		}
		next := openflow.GotoTable(id + 1)
		if id == tables-1 {
			next = openflow.WriteActions(openflow.Group(1))
		}
		if err := tbl.Insert(&openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldIPProto, 6)},
			Instructions: []openflow.Instruction{next},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct flows, one outcome.
	trace := make([]openflow.Header, 64)
	for i := range trace {
		trace[i] = openflow.Header{IPProto: 6, IPv4Dst: uint32(i), SrcPort: uint16(i)}
	}
	// check records, outside the measured closures' reach of t, any
	// result that is not the outcome or does not share its slices.
	var (
		outs     *uint32
		visited  *openflow.TableID
		wrong    *core.Result
		unshared int
	)
	check := func(r *core.Result) {
		if len(r.TablesVisited) != tables || !slices.Equal(r.Outputs, wantOuts) {
			wrong = r
			return
		}
		if outs == nil {
			outs, visited = &r.Outputs[0], &r.TablesVisited[0]
		}
		if &r.Outputs[0] != outs || &r.TablesVisited[0] != visited {
			unshared++
		}
	}
	report := func(t *testing.T, name string) {
		t.Helper()
		if wrong != nil {
			t.Fatalf("%s: outcome visited %v, outputs %v; want %d tables and %v", name, wrong.TablesVisited, wrong.Outputs, tables, wantOuts)
		}
		if unshared > 0 {
			t.Errorf("%s: %d results carried their own copy of the outcome's slices", name, unshared)
			unshared = 0
		}
	}
	for _, tiers := range []bool{false, true} {
		name := "tiers-off"
		if tiers {
			name = "tiers-on"
			p.SetCacheSize(1 << 10)
			p.SetMegaflowSize(1 << 10)
		}
		t.Run(name, func(t *testing.T) {
			p.Refresh()
			h := new(openflow.Header)
			var res core.Result
			i := 0
			assertZeroAllocs(t, "Pipeline.Execute/"+name, func() {
				*h = trace[i%len(trace)]
				res = p.Execute(h)
				check(&res)
				i++
			})
			report(t, "Pipeline.Execute/"+name)
			if tiers && p.CacheStats().Hits == 0 {
				t.Error("the microflow tier served no packet")
			}
			hs := make([]*openflow.Header, len(trace))
			scratch := make([]openflow.Header, len(trace))
			var batch []core.Result
			for _, workers := range []int{1, 4} {
				p.SetWorkers(workers)
				assertZeroAllocs(t, "Pipeline.ExecuteBatchInto/"+name, func() {
					for j := range hs {
						scratch[j] = trace[j]
						hs[j] = &scratch[j]
					}
					batch = p.ExecuteBatchInto(hs, batch)
					for j := range batch {
						check(&batch[j])
					}
				})
				report(t, "Pipeline.ExecuteBatchInto/"+name)
			}
		})
	}
}

// settleRuntime runs, outside a measured window, the runtime's own work
// that AllocsPerRun would otherwise charge to the code it measures: its
// count is process-wide, and it measures at GOMAXPROCS 1. Every GC
// cycle, as it starts, wakes the unique-map cleanup goroutine (net/netip
// interns its zones), which allocates twice, and the background
// scavenger, whose timer grows the one P's timer heap the first time a
// fresh process runs it there. A GOMAXPROCS-1 window that only sleeps
// lets both run first.
func settleRuntime() {
	testing.AllocsPerRun(1, func() { time.Sleep(10 * time.Millisecond) })
}

// TestExecuteColdTraceAllocs is the cold counterpart of the warm pins
// above: on a trace whose destinations never repeat, every packet misses
// both tiers, walks, and fills both in place. That path allocates nothing
// either — measured once while both tiers are still armed (every packet
// fills both) and once after the admission rule has bypassed them (the
// sampled 1/16 of keys still fill), single-packet and batched.
func TestExecuteColdTraceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("filter generation is not short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc regression measured without -race")
	}
	const (
		burnIn = 40 << 10 // the tiers start armed; bypass comes inside this many packets
		chunk  = 4096
		runs   = 4
	)
	f := filterset.GenerateLPM("lpm", 30000, filterset.DefaultSeed)
	p := buildBackendPipeline(t, "", []openflow.FieldID{openflow.FieldIPv4Dst}, f.FlowEntries())
	p.SetWorkers(1)
	trace := traffic.LPMTrace(f, burnIn+(runs+1)*chunk, 0.9, 1)
	for _, batched := range []bool{false, true} {
		name := "execute"
		if batched {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			p.SetCacheSize(4096) // fresh tiers, armed
			p.SetMegaflowSize(2048)
			p.Refresh()
			hs := make([]*openflow.Header, chunk)
			var res []core.Result
			next := 0
			run := func(n int) {
				if batched {
					for j := 0; j < n; j++ {
						hs[j] = &trace[next+j]
					}
					res = p.ExecuteBatchInto(hs[:n], res)
				} else {
					for j := 0; j < n; j++ {
						p.Execute(&trace[next+j])
					}
				}
				next += n
			}
			// The first chunk takes the one-off allocations: the learned
			// masks' tuples, the interned Results, pooled scratch. Then a
			// full GC cycle, waited out, and the runtime's own work after
			// it (settleRuntime).
			run(chunk)
			runtime.GC()
			settleRuntime()
			if perChunk := testing.AllocsPerRun(1, func() { run(chunk) }); perChunk != 0 {
				t.Errorf("%.0f allocs per %d all-miss packets filling both armed tiers, want 0", perChunk, chunk)
			}
			if cs, ms := p.CacheStats(), p.MegaflowStats(); !cs.Armed || !ms.Armed {
				t.Fatalf("tiers bypassed inside the first %d packets, nothing armed was measured: %+v %+v", next, cs, ms)
			}
			for next < burnIn {
				run(chunk)
			}
			if cs, ms := p.CacheStats(), p.MegaflowStats(); cs.Armed || ms.Armed {
				t.Fatalf("tiers still armed after %d all-miss packets: %+v %+v", burnIn, cs, ms)
			}
			if perChunk := testing.AllocsPerRun(runs, func() { run(chunk) }); perChunk != 0 {
				t.Errorf("%.0f allocs per %d all-miss packets through bypassed tiers, want 0", perChunk, chunk)
			}
		})
	}
}

// TestTrieLookupAllZeroAlloc covers the trie walk feeding the
// crossproduct stage.
func TestTrieLookupAllZeroAlloc(t *testing.T) {
	tr := mbt.MustNew(mbt.Config16())
	for i := 0; i < 4096; i++ {
		v := uint64(i * 16)
		if err := tr.Insert(v&0xFFFF, 16, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-size the destination outside the measured region; LookupAll
	// appends, so a once-grown buffer is reused thereafter.
	dst := tr.LookupAll(0, nil)
	var key uint64
	assertZeroAllocs(t, "Trie.LookupAll", func() {
		dst = tr.LookupAll(key&0xFFFF, dst[:0])
		key += 977
	})
}

// TestStatsPathsServeCachedViews locks in the satellite fix for the
// per-poll allocations: repeated Fields and TableInfos calls must serve
// the same backing arrays instead of re-allocating.
func TestStatsPathsServeCachedViews(t *testing.T) {
	f := filterset.GenerateACL("cache", 50, filterset.DefaultSeed)
	p, err := core.BuildACL(f)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := p.Table(0)
	a := p.TableInfos()
	b := p.TableInfos()
	if &a[0] != &b[0] {
		t.Error("TableInfos re-allocated with no intervening mutation")
	}
	// A mutation must invalidate the cached view.
	e := f.FlowEntries()[0]
	if _, err := p.Begin().DeleteStrict(0, e.Priority, e.Matches...).Commit(); err != nil {
		t.Fatal(err)
	}
	c := p.TableInfos()
	if c[0].Rules != a[0].Rules-1 {
		t.Errorf("TableInfos stale after mutation: %d rules, want %d", c[0].Rules, a[0].Rules-1)
	}

	// The allocation assertions abort (skip) under -race, so they come
	// last.
	assertZeroAllocs(t, "LookupTable.Fields", func() { _ = tbl.Fields() })
	assertZeroAllocs(t, "Pipeline.TableInfos", func() { _ = p.TableInfos() })
}
