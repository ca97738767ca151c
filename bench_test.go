package ofmtl_test

import (
	"strconv"
	"testing"

	"ofmtl/internal/baseline"
	"ofmtl/internal/core"
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

// BenchmarkUpdateFileReplay measures the concrete update-file replay path
// (Section V.B) for a mid-sized MAC filter.
func BenchmarkUpdateFileReplay(b *testing.B) {
	f, err := filterset.GenerateMAC("bbra", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	opt, _ := update.MACUpdateFiles(f)
	e := update.Engine{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := update.NewMemoryImage()
		e.Replay(opt, img)
	}
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

// benchChurn commits b.N transactions on table 0 shaped like the
// benchmark's churn batch: eight strict deletes of installed rules,
// visiting pool stride entries apart, plus the re-adds of the eight the
// previous transaction deleted, applied and published in one Commit.
// Beside ns/op it reports copiedB/op, the bytes each commit copied to
// keep published views immutable (cow.Copied): the work count a commit's
// time follows.
func benchChurn(b *testing.B, p *core.Pipeline, pool []openflow.FlowEntry, stride int) {
	const half = 8
	var deleted, readd []int
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	copied := cow.Copied()
	for i := 0; i < b.N; i++ {
		tx := p.Begin()
		deleted = deleted[:0]
		for k := 0; k < half; k++ {
			e := &pool[next]
			tx.DeleteStrict(0, e.Priority, e.Matches...)
			deleted = append(deleted, next)
			next = (next + stride) % len(pool)
		}
		for _, idx := range readd {
			tx.Add(0, &pool[idx])
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		deleted, readd = readd, deleted
	}
	b.ReportMetric(float64(cow.Copied()-copied)/float64(b.N), "copiedB/op")
}

// BenchmarkCommitLPMMegaflow measures one churn-shaped flow-mod
// transaction (benchChurn) on a 256 k-prefix LPM table (one mbt table on
// the destination) behind a 16 384-entry masked megaflow tier filled by
// as many distinct destinations: each commit's megaflow sweep judges
// every live entry against the sixteen touched rules.
func BenchmarkCommitLPMMegaflow(b *testing.B) {
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
	const entries = 16384
	p.SetMegaflowSize(entries)
	// Each destination twice: the repeat hits, which keeps the tier's hit
	// share at one half and its admission rule from bypassing it.
	for _, h := range traffic.LPMTrace(f, entries, 0.9, 7) {
		for rep := 0; rep < 2; rep++ {
			hc := h
			p.Execute(&hc)
		}
	}
	if st := p.MegaflowStats(); st.Hits < entries/2 || !st.Armed {
		b.Fatalf("megaflow tier not filled: %+v", st)
	}
	// The generator emits prefixes in /16 clusters (sequential runs): a
	// prime stride spreads the churn over the table, as the benchmark's
	// random pick does.
	benchChurn(b, p, pool, 7919)
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
// comparison. Two table shapes are measured: the 5-field ACL classifier
// (every generic scheme; dir24 cannot serve it and is skipped) and a
// destination-only LPM table (all four schemes, dir24's home shape).
// ns/op is the lookup cost axis; the membits metric is the scheme's
// accounted memory for the identical rule set, so one benchmark run
// reproduces the memory/lookup tradeoff table.
func BenchmarkLookupPerBackend(b *testing.B) {
	acl := filterset.GenerateACL("bench", 1000, filterset.DefaultSeed)
	lpm := filterset.GenerateLPM("bench", 10_000, filterset.DefaultSeed)
	groups := []struct {
		name    string
		fields  []openflow.FieldID
		entries []openflow.FlowEntry
		trace   []openflow.Header
	}{
		{
			"acl",
			[]openflow.FieldID{
				openflow.FieldIPv4Src,
				openflow.FieldIPv4Dst,
				openflow.FieldSrcPort,
				openflow.FieldDstPort,
				openflow.FieldIPProto,
			},
			acl.FlowEntries(),
			traffic.ACLTrace(acl, 4096, 0.8, 1),
		},
		{
			"lpm",
			[]openflow.FieldID{openflow.FieldIPv4Dst},
			lpm.FlowEntries(),
			traffic.LPMTrace(lpm, 4096, 0.9, 1),
		},
	}
	for _, g := range groups {
		for _, kind := range core.BackendKinds() {
			if !core.BackendSupportsFields(kind, g.fields) {
				continue // dir24 serves only the lpm group's shape
			}
			p := buildBackendPipeline(b, kind, g.fields, g.entries)
			b.Run(g.name+"/"+kind, func(b *testing.B) {
				benchPipeline(b, p, g.trace)
				// After the timed region: ResetTimer inside benchPipeline
				// would discard metrics reported earlier.
				b.ReportMetric(float64(p.MemoryStats().TotalBits), "membits")
			})
		}
	}
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

// BenchmarkPipelineExecuteBatch measures the amortised batch path at
// several worker counts against the uniform MAC workload (workers=1 is
// the sequential baseline; the microflow cache is off, so every packet
// pays the full multi-table walk).
func BenchmarkPipelineExecuteBatch(b *testing.B) {
	f, err := filterset.GenerateMAC("gozb", filterset.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.BuildMAC(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchBatch(b, p, traffic.MACTrace(f, 4096, 0.9, 1))
}

// BenchmarkUpdatePlans measures update-file construction for the largest
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
