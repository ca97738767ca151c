package ofmtl_test

import (
	"math"
	"sort"
	"strconv"
	"testing"
	"time"

	"ofmtl/internal/baseline"
	"ofmtl/internal/core"
	"ofmtl/internal/core/autotune"
	"ofmtl/internal/cow"
	"ofmtl/internal/crossprod"
	"ofmtl/internal/experiments"
	"ofmtl/internal/filterset"
	"ofmtl/internal/label"
	"ofmtl/internal/lut"
	"ofmtl/internal/mbt"
	"ofmtl/internal/openflow"
	"ofmtl/internal/rangelookup"
	"ofmtl/internal/traffic"
	"ofmtl/internal/update"
	"ofmtl/internal/xrand"
)

// ---------------------------------------------------------------------
// Macro benchmarks: one per table and figure of the paper. Each runs the
// corresponding experiment harness end to end (generation, structure
// build, measurement) and surfaces its headline quantity as a custom
// metric, so `go test -bench .` regenerates the full evaluation.
// ---------------------------------------------------------------------

func benchExperiment(b *testing.B, id string, metric func(*experiments.Report) (float64, string)) {
	b.Helper()
	cfg := experiments.Config{ACLRules: 400}
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil {
		v, unit := metric(rep)
		b.ReportMetric(v, unit)
	}
}

// BenchmarkTable1Baselines regenerates Table I (algorithm categories).
func BenchmarkTable1Baselines(b *testing.B) {
	benchExperiment(b, "table1", func(r *experiments.Report) (float64, string) {
		return float64(len(r.Rows)), "algorithms"
	})
}

// BenchmarkTable2MatchFields regenerates Table II (match field registry).
func BenchmarkTable2MatchFields(b *testing.B) {
	benchExperiment(b, "table2", func(r *experiments.Report) (float64, string) {
		return float64(len(r.Rows)), "fields"
	})
}

// BenchmarkTable3MACUnique regenerates Table III (MAC unique values).
func BenchmarkTable3MACUnique(b *testing.B) {
	benchExperiment(b, "table3", nil)
}

// BenchmarkTable4RoutingUnique regenerates Table IV (routing unique values).
func BenchmarkTable4RoutingUnique(b *testing.B) {
	benchExperiment(b, "table4", nil)
}

// BenchmarkFig2aEthernetNodes regenerates Fig. 2(a) (Ethernet trie nodes).
func BenchmarkFig2aEthernetNodes(b *testing.B) {
	benchExperiment(b, "fig2a", func(r *experiments.Report) (float64, string) {
		gozb := r.FindRow("gozb")
		return float64(r.CellInt(gozb, 3)), "gozb-lower-nodes"
	})
}

// BenchmarkFig2bIPv4Nodes regenerates Fig. 2(b) (IPv4 trie nodes).
func BenchmarkFig2bIPv4Nodes(b *testing.B) {
	benchExperiment(b, "fig2b", func(r *experiments.Report) (float64, string) {
		coza := r.FindRow("coza")
		return float64(r.CellInt(coza, 1)), "coza-higher-nodes"
	})
}

// BenchmarkFig3EthernetLowerTrie regenerates Fig. 3 (Kbit per level).
func BenchmarkFig3EthernetLowerTrie(b *testing.B) {
	benchExperiment(b, "fig3", func(r *experiments.Report) (float64, string) {
		gozb := r.FindRow("gozb")
		return r.CellFloat(gozb, 4), "gozb-kbit"
	})
}

// BenchmarkFig4aIPv4LowerTrie regenerates Fig. 4(a).
func BenchmarkFig4aIPv4LowerTrie(b *testing.B) {
	benchExperiment(b, "fig4a", nil)
}

// BenchmarkFig4bOutlierTries regenerates Fig. 4(b).
func BenchmarkFig4bOutlierTries(b *testing.B) {
	benchExperiment(b, "fig4b", nil)
}

// BenchmarkFig5UpdateCycles regenerates Fig. 5 (update cost comparison).
func BenchmarkFig5UpdateCycles(b *testing.B) {
	benchExperiment(b, "fig5", nil)
}

// BenchmarkHeadlinePrototype regenerates the Section V.A 5-Mbit prototype.
func BenchmarkHeadlinePrototype(b *testing.B) {
	benchExperiment(b, "headline", func(r *experiments.Report) (float64, string) {
		row := r.FindRow("TOTAL (paper accounting: tries+LUTs+action rows)")
		return r.CellFloat(row, 2), "mbit"
	})
}

// BenchmarkAblationStrides sweeps trie stride configurations.
func BenchmarkAblationStrides(b *testing.B) {
	benchExperiment(b, "ablation-strides", nil)
}

// BenchmarkAblationLabelMethod compares labelled vs naive storage.
func BenchmarkAblationLabelMethod(b *testing.B) {
	benchExperiment(b, "ablation-label", nil)
}

// BenchmarkAblationLUTWays sweeps exact-match LUT associativity.
func BenchmarkAblationLUTWays(b *testing.B) {
	benchExperiment(b, "ablation-lutways", nil)
}

// BenchmarkExtScaling sweeps routing-table size against a TCAM baseline.
func BenchmarkExtScaling(b *testing.B) {
	benchExperiment(b, "ext-scaling", func(r *experiments.Report) (float64, string) {
		return r.CellFloat(len(r.Rows)-1, 6), "tcam-over-arch"
	})
}

// BenchmarkExtBaselineSweep extends Table I across rule-set sizes.
func BenchmarkExtBaselineSweep(b *testing.B) {
	benchExperiment(b, "ext-baseline-sweep", nil)
}

// ---------------------------------------------------------------------
// Micro benchmarks: the hot paths of the architecture.
// ---------------------------------------------------------------------

func buildBenchTrie(b *testing.B, values int) *mbt.Trie {
	b.Helper()
	tr := mbt.MustNew(mbt.Config16())
	rng := xrand.New(1)
	seen := map[uint16]bool{}
	for i := 0; i < values; {
		v := uint16(rng.Intn(65536))
		if seen[v] {
			continue
		}
		seen[v] = true
		if err := tr.Insert(uint64(v), 16, label.Label(i)); err != nil {
			b.Fatal(err)
		}
		i++
	}
	return tr
}

// BenchmarkMBTLookup measures one 3-stage trie walk (the paper's pipeline
// lookup unit).
func BenchmarkMBTLookup(b *testing.B) {
	tr := buildBenchTrie(b, 6177) // gozb lower-partition population
	rng := xrand.New(2)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(rng.Intn(65536))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(keys[i%len(keys)])
	}
}

// BenchmarkMBTLookupAll measures the full match-set walk the crossproduct
// stage requires.
func BenchmarkMBTLookupAll(b *testing.B) {
	tr := buildBenchTrie(b, 6177)
	var scratch []mbt.MatchedEntry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = tr.LookupAll(uint64(i)&0xFFFF, scratch[:0])
	}
}

// BenchmarkMBTInsertDelete measures one incremental update pair.
func BenchmarkMBTInsertDelete(b *testing.B) {
	tr := buildBenchTrie(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i) & 0xFFFF
		lab := label.Label(100000 + i)
		if err := tr.Insert(v, 16, lab); err != nil {
			b.Fatal(err)
		}
		if err := tr.Delete(v, 16, lab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossprodLookup measures one combination-store probe at the
// two table shapes the pipeline builds: a packed 2-dimension table (the
// two-field decomposition) and a hashed 5-dimension table (the ACL
// classifier), for both present and absent keys. This is the
// index-calculation unit the dense rewrite made allocation-free.
func BenchmarkCrossprodLookup(b *testing.B) {
	for _, dims := range []int{2, 5} {
		tbl := crossprod.MustNew(dims)
		rng := xrand.New(11)
		key := make([]label.Label, dims)
		for i := 0; i < 4096; i++ {
			for d := range key {
				key[d] = label.Label(rng.Intn(64))
			}
			if err := tbl.Insert(key, crossprod.Binding{Priority: i & 7, Payload: uint32(i)}, 0); err != nil {
				b.Fatal(err)
			}
		}
		keys := make([][]label.Label, 1024)
		for i := range keys {
			k := make([]label.Label, dims)
			for d := range k {
				k[d] = label.Label(rng.Intn(64))
			}
			keys[i] = k
		}
		b.Run("dims-"+strconv.Itoa(dims), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl.Lookup(keys[i%len(keys)])
			}
		})
	}
}

// BenchmarkClassifyACL measures one Classify call on the ACL table (five
// fields, three matching methods): the field searches and the depth-first
// candidate walk with its prefix-stage pruning and running key hash,
// without the surrounding pipeline walk.
func BenchmarkClassifyACL(b *testing.B) {
	f := filterset.GenerateACL("bench", 1000, filterset.DefaultSeed)
	p, err := core.BuildACL(f)
	if err != nil {
		b.Fatal(err)
	}
	tbl, ok := p.Table(0)
	if !ok {
		b.Fatal("ACL pipeline lost its table")
	}
	trace := traffic.ACLTrace(f, 4096, 0.8, 1)
	h := new(openflow.Header) // hoisted: see benchPipeline
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*h = trace[i%len(trace)]
		tbl.Classify(h)
	}
}

// BenchmarkCommitACL measures one flow-mod transaction on the 1000-rule
// ACL, shaped like the benchmark's churn batch (benchChurn). Every rule
// carries port ranges, so each commit updates the range searchers'
// elementary intervals as well as the crossproduct store.
func BenchmarkCommitACL(b *testing.B) {
	f := filterset.GenerateACL("bench", 1000, filterset.DefaultSeed)
	p, err := core.BuildACL(f)
	if err != nil {
		b.Fatal(err)
	}
	p.Refresh()
	benchChurn(b, p, f.FlowEntries(), 1)
}

// benchChurn commits b.N churn transactions on table 0 (churn.commit).
// Beside ns/op it reports copiedB/op, the bytes each commit copied to
// keep published views immutable (cow.Copied): the work count a commit's
// time follows.
func benchChurn(b *testing.B, p *core.Pipeline, pool []openflow.FlowEntry, stride int) {
	c := &churn{p: p, pool: pool, stride: stride}
	b.ReportAllocs()
	b.ResetTimer()
	copied := cow.Copied()
	for i := 0; i < b.N; i++ {
		if err := c.commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cow.Copied()-copied)/float64(b.N), "copiedB/op")
}

// churn commits transactions on one table shaped like the benchmark's
// churn batch: eight strict deletes of installed rules, visiting pool
// stride entries apart, plus the re-adds of the eight the previous
// transaction deleted, applied and published in one Commit.
type churn struct {
	p              *core.Pipeline
	table          openflow.TableID
	pool           []openflow.FlowEntry
	stride, next   int
	deleted, readd []int
}

func (c *churn) commit() error {
	const half = 8
	tx := c.p.Begin()
	c.deleted = c.deleted[:0]
	for k := 0; k < half; k++ {
		e := &c.pool[c.next]
		tx.DeleteStrict(c.table, e.Priority, e.Matches...)
		c.deleted = append(c.deleted, c.next)
		c.next = (c.next + c.stride) % len(c.pool)
	}
	for _, idx := range c.readd {
		tx.Add(c.table, &c.pool[idx])
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	c.deleted, c.readd = c.readd, c.deleted
	return nil
}

// megaflowBenchEntries sizes the masked tier of lpmMegaflowBench.
const megaflowBenchEntries = 16384

// lpmMegaflowBench builds the LPM commit benchmarks' pipeline: 256 k
// prefixes in one mbt table on the destination, behind a masked megaflow
// tier of megaflowBenchEntries entries.
func lpmMegaflowBench(b *testing.B) (*core.Pipeline, *filterset.LPMFilter) {
	f := filterset.GenerateLPM("lpm", 256000, filterset.DefaultSeed)
	pool := f.FlowEntries()
	p := core.NewPipeline()
	tab, err := p.AddTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Dst},
		Miss:   core.MissPolicy{Kind: core.MissController},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := range pool {
		if err := tab.Insert(&pool[i]); err != nil {
			b.Fatal(err)
		}
	}
	p.SetMegaflowSize(megaflowBenchEntries)
	return p, f
}

// BenchmarkCommitLPMMegaflow measures one churn-shaped flow-mod
// transaction (benchChurn) on the armed path: a 256 k-prefix LPM table
// (lpmMegaflowBench) behind a 16 384-entry masked megaflow tier filled by
// as many distinct destinations, each seen twice, so the tier serves and
// each commit's megaflow sweep judges every live entry against the
// sixteen touched rules before the commit publishes its snapshot.
func BenchmarkCommitLPMMegaflow(b *testing.B) {
	p, f := lpmMegaflowBench(b)
	// Each destination twice: the repeat hits, which keeps the tier's hit
	// share at one half and its admission rule from bypassing it.
	for _, h := range traffic.LPMTrace(f, megaflowBenchEntries, 0.9, 7) {
		for rep := 0; rep < 2; rep++ {
			hc := h
			p.Execute(&hc)
		}
	}
	if st := p.MegaflowStats(); st.Hits < megaflowBenchEntries/2 || !st.Armed {
		b.Fatalf("megaflow tier not filled: %+v", st)
	}
	// The generator emits prefixes in /16 clusters (sequential runs): a
	// prime stride spreads the churn over the table, as the benchmark's
	// random pick does.
	benchChurn(b, p, f.FlowEntries(), 7919)
}

// BenchmarkCommitLPMBypassed measures the same transaction on the same
// table and tier after destinations that never repeat have made the
// tier's admission rule bypass it: each commit retracts the snapshot,
// with no sweep and no publish, as lpm256k_uniform's flow-mod windows
// commit after its packet windows.
func BenchmarkCommitLPMBypassed(b *testing.B) {
	p, f := lpmMegaflowBench(b)
	for _, h := range traffic.LPMTrace(f, 4*megaflowBenchEntries, 0.9, 7) {
		p.Execute(&h)
	}
	if st := p.MegaflowStats(); st.Armed || st.Entries == 0 {
		b.Fatalf("megaflow tier not bypassed: %+v", st)
	}
	benchChurn(b, p, f.FlowEntries(), 7919)
}

// BenchmarkExecuteTailUnderCommits measures the latency tail of Execute
// while commits arrive: the paper's 4-table prototype (the gozb MAC and
// coza routing filters) behind both cache tiers, sized as the benchmark's
// proto_zipf workload sizes them, classifying Zipf(1.1) traffic while
// another goroutine commits a churn transaction (churn.commit) on the
// largest table every 2 ms. It reports the p99 and p99.99 of one
// Execute's latency, at 10 ns resolution, the microflow tier's hit share
// over the timed loop, and whether the megaflow tier is armed at its end.
func BenchmarkExecuteTailUnderCommits(b *testing.B) {
	mac, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := filterset.GenerateRoute("coza", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildPrototype(mac, rt)
	if err != nil {
		b.Fatal(err)
	}
	p.SetCacheSize(1 << 16)
	p.SetMegaflowSize(1 << 14)
	macTrace := traffic.MACTraceZipf(mac, 4096, 1<<17, 0.95, 1.1, 1)
	rtTrace := traffic.RouteTraceZipf(rt, 4096, 1<<17, 0.95, 1.1, 1)
	var trace []openflow.Header
	for i := range macTrace {
		trace = append(trace, macTrace[i], rtTrace[i])
	}
	c := &churn{p: p, stride: 7919}
	most := 0
	for _, info := range p.TableInfos() {
		if info.Rules > most {
			c.table, most = info.ID, info.Rules
		}
	}
	p.VisitFlows(int(c.table), 0, 0, 0, 0, func(fs *core.FlowStats) bool {
		e := fs.Entry.Clone()
		e.Ref = 0
		c.pool = append(c.pool, *e)
		return true
	})
	for i := range trace {
		h := trace[i]
		p.Execute(&h)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := c.commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}
	}()
	const bucketNs, buckets = 10, 1_000_000 // up to 10 ms; longer calls land in the last bucket
	hist := make([]uint32, buckets)
	n := 0
	micro0 := p.CacheStats()
	for b.Loop() {
		h := trace[n%len(trace)]
		start := time.Now()
		p.Execute(&h)
		hist[min(int(time.Since(start)/bucketNs), buckets-1)]++
		n++
	}
	close(stop)
	<-done
	quantileUs := func(q float64) float64 {
		rank := uint64(math.Ceil(q * float64(n)))
		var seen uint64
		for i, k := range hist {
			if seen += uint64(k); seen >= rank {
				return float64(i*bucketNs) / 1e3
			}
		}
		return float64(buckets*bucketNs) / 1e3
	}
	b.ReportMetric(quantileUs(0.99), "p99-us")
	b.ReportMetric(quantileUs(0.9999), "p99.99-us")
	micro, mega := p.CacheStats(), p.MegaflowStats()
	if lookups := micro.Hits + micro.Misses - micro0.Hits - micro0.Misses; lookups > 0 {
		b.ReportMetric(100*float64(micro.Hits-micro0.Hits)/float64(lookups), "micro-hit-%")
	}
	armed := 0.0
	if mega.Armed {
		armed = 1
	}
	b.ReportMetric(armed, "mega-armed")
}

// BenchmarkLUTLookup measures the exact-match hash LUT.
func BenchmarkLUTLookup(b *testing.B) {
	l, err := lut.New(13, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 209; i++ { // the paper's worst-case VLAN count
		if _, _, err := l.Insert(i * 19 % 4096); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lookup(uint64(i) & 0xFFF)
	}
}

// BenchmarkRangeLookup measures the elementary-interval port search.
func BenchmarkRangeLookup(b *testing.B) {
	var tbl rangelookup.Table
	rng := xrand.New(3)
	for i := 0; i < 200; i++ {
		lo := uint64(rng.Intn(60000))
		if err := tbl.Insert(lo, lo+uint64(rng.Intn(1024)), label.Label(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(uint64(i) & 0xFFFF)
	}
}

func benchPipeline(b *testing.B, p *core.Pipeline, trace []openflow.Header) {
	b.Helper()
	p.Refresh() // publish the snapshot outside the timed region
	// The header is hoisted out of the loop (and so heap-allocated once,
	// before the timer): Execute takes it by pointer through interface
	// method calls, so a per-iteration local would escape and the
	// benchmark would measure its own allocation instead of the
	// pipeline's.
	h := new(openflow.Header)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*h = trace[i%len(trace)]
		p.Execute(h)
	}
}

// BenchmarkPipelineExecuteMAC measures end-to-end two-table MAC lookups at
// the paper's worst-case scale (gozb, 7 370 rules).
func BenchmarkPipelineExecuteMAC(b *testing.B) {
	f, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildMAC(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchPipeline(b, p, traffic.MACTrace(f, 4096, 0.9, 1))
}

// BenchmarkPipelineExecuteRoute measures two-table routing lookups on the
// mid-sized yoza filter (4 746 rules).
func BenchmarkPipelineExecuteRoute(b *testing.B) {
	f, err := filterset.GenerateRoute("yoza", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildRoute(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchPipeline(b, p, traffic.RouteTrace(f, 4096, 0.9, 1))
}

// buildBackendPipeline builds a single-table pipeline explicitly pinned
// to the named backend (an explicit pin errors on an unservable shape,
// so a benchmark can never silently measure the fallback scheme) and
// loads it with the given rules.
func buildBackendPipeline(b testing.TB, kind string, fields []openflow.FieldID, entries []openflow.FlowEntry) *core.Pipeline {
	b.Helper()
	p := core.NewPipeline()
	t, err := p.AddTable(core.TableConfig{ID: 0, Fields: fields, Backend: kind})
	if err != nil {
		b.Fatal(err)
	}
	for i := range entries {
		if err := t.Insert(&entries[i]); err != nil {
			b.Fatalf("%s rule %d: %v", kind, i, err)
		}
	}
	return p
}

// BenchmarkLookupPerBackend classifies fixed workloads through each
// pluggable lookup backend — the live form of the paper's per-scheme
// comparison, and the measurement autotune.DefaultModel is fitted to. It
// times the table's lookup (LookupTable.Classify), not the pipeline walk
// around it, whose cost is the same whichever scheme serves. Every
// table shape whose advisor pick TestAdvisorPicks pins is timed here:
// the 5-field ACL classifier, a destination-only LPM table, the /24
// tables of the autotune tests (512 rules on one field, 128 on two) and
// each of the four tables of the paper's prototype (gozb MAC and coza
// routing filters), alone in a pipeline with the metadata the
// prototype's first tables would write preset in the trace. dir24
// serves only single-LPM-field shapes, and a two-field one only under
// auto, so its two-field row is the table an advisor pass moved there.
// ns/op is the lookup cost axis; the membits metric is the scheme's
// accounted memory for the identical rule set, so one benchmark run
// reproduces the memory/lookup tradeoff table.
func BenchmarkLookupPerBackend(b *testing.B) {
	acl := filterset.GenerateACL("bench", 1000, filterset.DefaultSeed)
	lpm := filterset.GenerateLPM("bench", 10_000, filterset.DefaultSeed)
	aclFields := []openflow.FieldID{
		openflow.FieldIPv4Src,
		openflow.FieldIPv4Dst,
		openflow.FieldSrcPort,
		openflow.FieldDstPort,
		openflow.FieldIPProto,
	}
	dst := []openflow.FieldID{openflow.FieldIPv4Dst}
	shapes := []lookupShape{
		{name: "acl", fields: aclFields, entries: acl.FlowEntries(), trace: traffic.ACLTrace(acl, 4096, 0.8, 1)},
		{name: "lpm", fields: dst, entries: lpm.FlowEntries(), trace: traffic.LPMTrace(lpm, 4096, 0.9, 1)},
		slash24Shape(512, dst),
		slash24Shape(128, []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldIPv4Src}),
	}
	shapes = append(shapes, prototypeShapes(b)...)
	for _, s := range shapes {
		for _, kind := range core.BackendKinds() {
			var p *core.Pipeline
			switch {
			case core.BackendSupportsFields(kind, s.fields):
				p = buildBackendPipeline(b, kind, s.fields, s.entries)
			case kind == core.BackendDIR24 && s.autoDIR24:
				p = buildBackendPipeline(b, core.BackendAuto, s.fields, s.entries)
				p.SetAutotunePolicy(autotune.Policy{})
				if ev := p.AutotuneOnce(); len(ev) != 1 || ev[0].To != core.BackendDIR24 {
					b.Fatalf("%s: advisor pass %v, want one migration to dir24", s.name, ev)
				}
			default:
				continue // dir24 cannot serve the shape
			}
			tbl, _ := p.Table(0)
			b.Run(s.name+"/"+kind, func(b *testing.B) {
				h := new(openflow.Header) // hoisted: see benchPipeline
				for i := 0; b.Loop(); i++ {
					*h = s.trace[i%len(s.trace)]
					tbl.Classify(h)
				}
				b.ReportMetric(float64(p.MemoryStats().TotalBits), "membits")
			})
		}
	}
}

// lookupShape is one table shape BenchmarkLookupPerBackend times: its
// fields, its rules and the trace that classifies through it. autoDIR24
// marks a multi-field shape whose rules constrain only the LPM field,
// which dir24 serves under auto.
type lookupShape struct {
	name      string
	fields    []openflow.FieldID
	entries   []openflow.FlowEntry
	trace     []openflow.Header
	autoDIR24 bool
}

// slash24Shape is the autotune tests' table: n /24 prefixes on the first
// field, rule i covering 10.i.j.* (with the top bits of i) and
// outputting port i+1, and a trace of addresses under them.
func slash24Shape(n int, fields []openflow.FieldID) lookupShape {
	s := lookupShape{name: "slash24x" + strconv.Itoa(n), fields: fields, autoDIR24: len(fields) > 1}
	for i := 0; i < n; i++ {
		s.entries = append(s.entries, openflow.FlowEntry{
			Priority:     24,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(i)<<8, 24)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(i) + 1))},
		})
	}
	rng := xrand.New(5)
	for i := 0; i < 4096; i++ {
		s.trace = append(s.trace, openflow.Header{IPv4Dst: uint32(rng.Intn(n))<<8 | rng.Uint32()&0xFF, IPv4Src: rng.Uint32()})
	}
	return s
}

// prototypeShapes returns the four tables of the paper's prototype (gozb
// MAC pair, coza routing pair), each with its rules as the prototype
// installs them and a trace whose metadata is what the pair's first
// table writes for the packet.
func prototypeShapes(b *testing.B) []lookupShape {
	b.Helper()
	mac, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := filterset.GenerateRoute("coza", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildPrototype(mac, rt)
	if err != nil {
		b.Fatal(err)
	}
	macTrace := traffic.MACTrace(mac, 4096, 0.9, 1)
	rtTrace := traffic.RouteTrace(rt, 4096, 0.9, 1)
	for i := range macTrace {
		macTrace[i].Metadata = uint64(macTrace[i].VLANID)
		rtTrace[i].Metadata = uint64(rtTrace[i].InPort)
	}
	var out []lookupShape
	for _, info := range p.TableInfos() {
		tbl, _ := p.Table(info.ID)
		s := lookupShape{name: "proto-t" + strconv.Itoa(int(info.ID)), fields: tbl.Fields(), trace: rtTrace}
		if info.ID < 2 {
			s.trace = macTrace
		}
		p.VisitFlows(int(info.ID), 0, 0, 0, 0, func(fs *core.FlowStats) bool {
			e := fs.Entry.Clone()
			e.Ref = 0
			s.entries = append(s.entries, *e)
			return true
		})
		// Highest priority first: the linear scheme keeps its rows in
		// priority order, and appending is its cheap insert.
		sort.SliceStable(s.entries, func(i, j int) bool { return s.entries[i].Priority > s.entries[j].Priority })
		out = append(out, s)
	}
	return out
}

// BenchmarkLookupMillionRoutes is the flat-array backend's headline
// scaling run: a full-Internet-sized destination-prefix table (one
// million routes, BGP-shaped length distribution) looked up through
// dir24, mbt and tss. It times Classify — the backend lookup itself,
// the paper's per-scheme cost axis — rather than the full pipeline
// Execute, whose scheme-independent walk overhead (scratch pooling,
// path/output interning) would flatten the comparison. dir24's lookup
// is one array read (plus one spill read for the ~3% of slots under
// >/24 prefixes) regardless of table size, so its gap over the trie
// and tuple-space walks is widest here; the acceptance floor is 5x
// over mbt. lineartcam is excluded — a million-entry linear scan per
// packet is not a lookup scheme, it is a timeout. The membits metric
// is each scheme's accounted memory for the identical rule set (for
// dir24, exactly the 2^24 array plus live spill chunks plus action
// rows).
func BenchmarkLookupMillionRoutes(b *testing.B) {
	const routes = 1_000_000
	f := filterset.GenerateLPM("feed", routes, filterset.DefaultSeed)
	trace := traffic.LPMTrace(f, 4096, 0.9, 1)
	entries := f.FlowEntries()
	fields := []openflow.FieldID{openflow.FieldIPv4Dst}
	for _, kind := range []string{core.BackendDIR24, core.BackendMBT, core.BackendTSS} {
		// Built in the parent so each trial of the sub-benchmark reuses
		// the loaded table; scoped per iteration so only one
		// million-route structure is live at a time.
		p := buildBackendPipeline(b, kind, fields, entries)
		tbl, ok := p.Table(0)
		if !ok {
			b.Fatal("pipeline lost its table")
		}
		b.Run(kind, func(b *testing.B) {
			h := new(openflow.Header) // hoisted: see benchPipeline
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*h = trace[i%len(trace)]
				tbl.Classify(h)
			}
			b.StopTimer()
			b.ReportMetric(float64(p.MemoryStats().TotalBits), "membits")
			b.ReportMetric(float64(routes), "routes")
		})
	}
}

// ---------------------------------------------------------------------
// Parallel benchmarks: the RCU snapshot engine. The sequential
// BenchmarkPipelineExecute* benchmarks above are the single-threaded
// baseline; these demonstrate that lookups scale across cores because
// Execute is lock-free against the published snapshot.
// ---------------------------------------------------------------------

func benchPipelineParallel(b *testing.B, p *core.Pipeline, trace []openflow.Header) {
	b.Helper()
	p.Refresh() // publish the snapshot outside the timed region
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := new(openflow.Header) // hoisted: see benchPipeline
		i := 0
		for pb.Next() {
			*h = trace[i%len(trace)]
			p.Execute(h)
			i++
		}
	})
}

// BenchmarkPipelineExecuteMACParallel runs the Table III worst-case MAC
// filter (gozb) with one goroutine per core.
func BenchmarkPipelineExecuteMACParallel(b *testing.B) {
	f, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildMAC(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchPipelineParallel(b, p, traffic.MACTrace(f, 4096, 0.9, 1))
}

// BenchmarkPipelineExecuteRouteParallel runs the Table IV routing filter
// (yoza) with one goroutine per core.
func BenchmarkPipelineExecuteRouteParallel(b *testing.B) {
	f, err := filterset.GenerateRoute("yoza", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildRoute(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchPipelineParallel(b, p, traffic.RouteTrace(f, 4096, 0.9, 1))
}

// benchBatch drives the contention-free batch engine at several worker
// counts over a fixed trace, reusing the reply slice through
// ExecuteBatchInto so the steady-state path is allocation-free.
func benchBatch(b *testing.B, p *core.Pipeline, trace []openflow.Header) {
	b.Helper()
	const batch = 512
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers-"+strconv.Itoa(workers), func(b *testing.B) {
			p.SetWorkers(workers)
			p.Refresh()
			hs := make([]*openflow.Header, batch)
			scratch := make([]openflow.Header, batch)
			var res []core.Result
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range hs {
					scratch[j] = trace[(i*batch+j)%len(trace)]
					hs[j] = &scratch[j]
				}
				res = p.ExecuteBatchInto(hs, res)
			}
			b.ReportMetric(float64(batch), "packets/op")
		})
	}
}

// BenchmarkPipelineExecuteBatch measures the amortised batch path. The
// mac legs run several worker counts against the uniform MAC workload
// (workers=1 is the sequential baseline; the microflow cache is off, so
// every packet pays the full multi-table walk). The lpm256k leg is one
// worker on a 256 k-prefix ipv4-dst table with both cache tiers off,
// where the mbt walk is bound by memory latency: the measurement behind
// walkGroup, the number of misses a batch worker walks together. It is
// report-only.
func BenchmarkPipelineExecuteBatch(b *testing.B) {
	b.Run("mac", func(b *testing.B) {
		f, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.BuildMAC(f, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchBatch(b, p, traffic.MACTrace(f, 4096, 0.9, 1))
	})
	b.Run("lpm256k", func(b *testing.B) {
		f := filterset.GenerateLPM("lpm", 256000, filterset.DefaultSeed)
		p := core.NewPipeline()
		tab, err := p.AddTable(core.TableConfig{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}})
		if err != nil {
			b.Fatal(err)
		}
		entries := f.FlowEntries()
		for i := range entries {
			if err := tab.Insert(&entries[i]); err != nil {
				b.Fatal(err)
			}
		}
		trace := traffic.LPMTrace(f, 1<<18, 0.9, 1)
		p.SetWorkers(1)
		p.Refresh()
		const batch = 256
		hs := make([]*openflow.Header, batch)
		scratch := make([]openflow.Header, batch)
		var res []core.Result
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range hs {
				scratch[j] = trace[(i*batch+j)%len(trace)]
				hs[j] = &scratch[j]
			}
			res = p.ExecuteBatchInto(hs, res)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
	})
}

// BenchmarkUpdatePlans measures update-plan construction for the largest
// routing filter (what the controller does per Section V.B).
func BenchmarkUpdatePlans(b *testing.B) {
	f, err := filterset.GenerateRoute("coza", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = update.PlanRouteOptimized(f)
		_ = update.PlanRouteOriginal(f)
	}
}

// BenchmarkCodecFlowEntry measures the wire codec round trip.
func BenchmarkCodecFlowEntry(b *testing.B) {
	e := &openflow.FlowEntry{
		Priority: 17,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, 9),
			openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
		},
		Instructions: []openflow.Instruction{
			openflow.GotoTable(1),
			openflow.WriteActions(openflow.Output(3)),
		},
	}
	var buf []byte
	var got openflow.FlowEntry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = openflow.AppendFlowEntry(buf[:0], e)
		if _, err := openflow.DecodeFlowEntryInto(&got, buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineClassify measures every Table I algorithm's per-packet
// classification on a shared 400-rule workload.
func BenchmarkBaselineClassify(b *testing.B) {
	f := filterset.GenerateACL("bench", 400, filterset.DefaultSeed)
	trace := traffic.ACLTrace(f, 2048, 0.8, 1)
	for _, c := range baseline.All() {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			if err := c.Build(f.Rules); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := trace[i%len(trace)]
				c.Classify(&h)
			}
		})
	}
}

// BenchmarkFilterGeneration measures synthetic filter-set construction
// (the substitution for the Stanford data; see internal/filterset).
func BenchmarkFilterGeneration(b *testing.B) {
	for _, name := range []string{"bbrb", "gozb"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := filterset.GenerateMAC(name, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("route-"+strconv.Itoa(1835), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := filterset.GenerateRoute("bbra", uint64(i)+1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
