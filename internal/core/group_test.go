package core

import (
	"fmt"
	"slices"
	"testing"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

// groupShape is one pipeline the grouped-classification test runs: built
// on the given default backend, with a trace for it.
type groupShape struct {
	name  string
	build func(t *testing.T, kind string) (*Pipeline, []openflow.Header)
}

// oneTable builds a one-table pipeline of the given fields and rules on
// the given default backend.
func oneTable(t *testing.T, kind string, fields []openflow.FieldID, entries []openflow.FlowEntry) *Pipeline {
	t.Helper()
	p := NewPipeline()
	if err := p.SetDefaultBackend(kind); err != nil {
		t.Fatal(err)
	}
	tab, err := p.AddTable(TableConfig{ID: 0, Fields: fields})
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if err := tab.Insert(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

var groupShapes = []groupShape{
	{"lpm30k", func(t *testing.T, kind string) (*Pipeline, []openflow.Header) {
		f := filterset.GenerateLPM("lpm", 30000, filterset.DefaultSeed)
		return oneTable(t, kind, []openflow.FieldID{openflow.FieldIPv4Dst}, f.FlowEntries()), traffic.LPMTrace(f, 1024, 0.9, 1)
	}},
	{"acl", func(t *testing.T, kind string) (*Pipeline, []openflow.Header) {
		f := filterset.GenerateACL("acl", 1000, filterset.DefaultSeed)
		fields := []openflow.FieldID{openflow.FieldIPv4Src, openflow.FieldIPv4Dst, openflow.FieldSrcPort, openflow.FieldDstPort, openflow.FieldIPProto}
		return oneTable(t, kind, fields, f.FlowEntries()), traffic.ACLTrace(f, 1024, 0.8, 1)
	}},
	{"mac", func(t *testing.T, kind string) (*Pipeline, []openflow.Header) {
		f, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPipeline()
		if err := p.SetDefaultBackend(kind); err != nil {
			t.Fatal(err)
		}
		if err := AddMACTables(p, f, 0, MissPolicy{Kind: MissController}); err != nil {
			t.Fatal(err)
		}
		return p, traffic.MACTrace(f, 1024, 0.9, 1)
	}},
	{"route", func(t *testing.T, kind string) (*Pipeline, []openflow.Header) {
		f, err := filterset.GenerateRoute("bozb", filterset.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPipeline()
		if err := p.SetDefaultBackend(kind); err != nil {
			t.Fatal(err)
		}
		if err := AddRouteTables(p, f, 0, MissPolicy{Kind: MissController}); err != nil {
			t.Fatal(err)
		}
		return p, traffic.RouteTrace(f, 1024, 0.9, 1)
	}},
	{"prototype", func(t *testing.T, kind string) (*Pipeline, []openflow.Header) {
		mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		route, err := filterset.GenerateRoute("bozb", filterset.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildPrototypeWith(mac, route, kind)
		if err != nil {
			t.Fatal(err)
		}
		// Half MAC, half routing traffic: both halves of the walk.
		hs := append(traffic.MACTrace(mac, 512, 0.9, 1), traffic.RouteTrace(route, 512, 0.9, 1)...)
		return p, hs
	}},
}

// groupSizes are the group sizes the test classifies with: around
// walkGroup, where the batch ladder splits, and a whole batch.
var groupSizes = []int{1, walkGroup - 1, walkGroup, walkGroup + 1, 256}

// groupSpan is how many trace headers each group size covers.
const groupSpan = 256

// TestGroupedClassifyMatchesReference classifies every shape on every
// backend kind in lookup groups of each size, traced and untraced, and
// checks each member against the brute-force priority scan of its table
// (ReferenceClassifier) and, traced, its consulted bits against the same
// header looked up alone. The walk level does the same for whole
// pipelines: a grouped walk against walks of one, result and mask. Last,
// ExecuteBatchInto at 1 and 4 workers, tiers off and on, must answer
// what per-packet Execute answers.
func TestGroupedClassifyMatchesReference(t *testing.T) {
	for _, shape := range groupShapes {
		for _, kind := range BackendKinds() {
			if shape.name == "lpm30k" && kind == BackendLinearTCAM {
				continue // a 30 k-row scan per lookup; the other shapes cover lineartcam
			}
			t.Run(shape.name+"/"+kind, func(t *testing.T) {
				p, trace := shape.build(t, kind)
				for _, id := range p.order {
					checkTableGroups(t, p.tables[id], trace)
				}
				checkWalkGroups(t, p, trace)
				checkBatchAgainstExecute(t, p, trace)
			})
		}
	}
}

// tableHeaders returns the trace as table tab sees it: a table that
// matches the metadata register gets each header's register set to the
// metadata value of a rule, in turn, so that its rules are reached.
func tableHeaders(tab *LookupTable, trace []openflow.Header) []openflow.Header {
	hs := slices.Clone(trace)
	if !slices.Contains(tab.cfg.Fields, openflow.FieldMetadata) {
		return hs
	}
	var meta []uint64
	for _, b := range tab.store.buckets {
		for _, sr := range b {
			if m, ok := sr.entry.Match(openflow.FieldMetadata); ok {
				meta = append(meta, m.Value.Lo)
			}
		}
	}
	slices.Sort(meta)
	for i := range hs {
		if len(meta) > 0 {
			hs[i].Metadata = meta[i%len(meta)]
		}
	}
	return hs
}

// checkTableGroups runs one table's lookup groups against the reference.
func checkTableGroups(t *testing.T, tab *LookupTable, trace []openflow.Header) {
	t.Helper()
	var ref ReferenceClassifier
	for _, b := range tab.store.buckets {
		for _, sr := range b {
			ref.Insert(&sr.entry)
		}
	}
	hs := tableHeaders(tab, trace)
	want := make([]*openflow.FlowEntry, len(hs))
	for i := range hs {
		want[i], _ = ref.Classify(&hs[i])
	}
	var one lookupGroup
	for _, n := range groupSizes {
		var g lookupGroup
		g.size(n)
		masks := make([]flowMask, n)
		for start := 0; start+n <= len(hs) && start < groupSpan; start += n {
			for _, traced := range []bool{false, true} {
				g.m = g.m[:0]
				for p := range n {
					g.hs[p], g.ls[p].tr = &hs[start+p], nil
					if traced {
						masks[p] = flowMask{}
						g.ls[p].tr = &masks[p]
					}
					g.m = append(g.m, int32(p))
				}
				tab.backend.Lookup(&g)
				for p := range n {
					h := &hs[start+p]
					where := fmt.Sprintf("table %d, group of %d, member %d (traced %v)", tab.cfg.ID, n, p, traced)
					got, want := g.out[p], want[start+p]
					if got.ok != (want != nil) || want != nil && (got.Priority != want.Priority || !instructionsEqual(got.Instructions, want.Instructions)) {
						t.Fatalf("%s: got %+v matched %v, the reference scan %+v", where, got.MatchResult, got.ok, want)
					}
					if !traced {
						continue
					}
					var alone flowMask
					one.lookupOne(tab.backend, h, &alone)
					if masks[p] != alone {
						t.Fatalf("%s: consulted %x, alone %x", where, masks[p], alone)
					}
				}
			}
		}
	}
}

// checkWalkGroups walks the trace through the pipeline in groups of each
// size, traced, against walks of one.
func checkWalkGroups(t *testing.T, p *Pipeline, trace []openflow.Header) {
	t.Helper()
	s := p.loadSnapshot()
	var w, one walker
	one.size(1)
	for _, n := range groupSizes {
		w.size(n)
		for start := 0; start+n <= len(trace) && start < groupSpan; start += n {
			hs := slices.Clone(trace[start : start+n])
			solo := slices.Clone(hs)
			slots := make([]int32, n)
			for i := range hs {
				w.begin(i, &hs[i], s, true)
				slots[i] = int32(i)
			}
			s.walk(&w, slots)
			for i := range hs {
				one.begin(0, &solo[i], s, true)
				s.walk(&one, []int32{0})
				got, want := &w.sc[i], &one.sc[0]
				if !resultsEqual(&got.res, &want.res) || got.tr != want.tr || got.rw != want.rw || hs[i] != solo[i] {
					t.Fatalf("walk group of %d, member %d: %+v mask %x rewrote %+v, alone %+v mask %x rewrote %+v", n, i, got.res, got.tr, got.rw, want.res, want.tr, want.rw)
				}
			}
		}
	}
}

// checkBatchAgainstExecute compares ExecuteBatchInto with per-packet
// Execute, at 1 and 4 workers, with the cache tiers off and on.
func checkBatchAgainstExecute(t *testing.T, p *Pipeline, trace []openflow.Header) {
	t.Helper()
	defer p.SetWorkers(0)
	for _, tiers := range []bool{false, true} {
		if tiers {
			p.SetCacheSize(1024)
			p.SetMegaflowSize(256)
		} else {
			p.SetCacheSize(0)
			p.SetMegaflowSize(0)
		}
		for _, workers := range []int{1, 4} {
			p.SetWorkers(workers)
			var res []Result
			for _, n := range groupSizes {
				batch := slices.Clone(trace[:n])
				hs := make([]*openflow.Header, n)
				for i := range batch {
					hs[i] = &batch[i]
				}
				res = p.ExecuteBatchInto(hs, res)
				for i := range hs {
					h := trace[i]
					want := p.Execute(&h)
					// A cache hit does not re-mutate its header, so the
					// headers agree only where both walked.
					if !resultsEqual(&res[i], &want) || !tiers && batch[i] != h {
						t.Fatalf("tiers %v, %d workers, batch of %d, packet %d: batch %+v, Execute %+v", tiers, workers, n, i, res[i], want)
					}
				}
			}
		}
	}
}
