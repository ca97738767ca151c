package traffic

import (
	"testing"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

func TestMACTraceHitRatio(t *testing.T) {
	f, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	trace := MACTrace(f, 5000, 0.8, 1)
	if len(trace) != 5000 {
		t.Fatalf("trace length %d", len(trace))
	}
	installed := map[[2]uint64]bool{}
	for _, r := range f.Rules {
		installed[[2]uint64{uint64(r.VLAN), r.EthDst}] = true
	}
	hits := 0
	for _, h := range trace {
		if installed[[2]uint64{uint64(h.VLANID), h.EthDst}] {
			hits++
		}
	}
	ratio := float64(hits) / float64(len(trace))
	if ratio < 0.7 || ratio > 0.9 {
		t.Errorf("hit ratio = %v, want ~0.8", ratio)
	}
}

func TestRouteTraceDeterministic(t *testing.T) {
	f, err := filterset.GenerateRoute("bbra", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	a := RouteTrace(f, 100, 0.5, 7)
	b := RouteTrace(f, 100, 0.5, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not deterministic at %d", i)
		}
	}
	c := RouteTrace(f, 100, 0.5, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds gave identical traces")
	}
}

func TestACLTraceFields(t *testing.T) {
	f := filterset.GenerateACL("t", 100, filterset.DefaultSeed)
	trace := ACLTrace(f, 1000, 1.0, 3)
	for i, h := range trace {
		if h.IPProto == 0 {
			t.Fatalf("header %d has zero protocol", i)
		}
	}
}

func TestEmptyFilterTraces(t *testing.T) {
	mac := &filterset.MACFilter{Name: "empty"}
	if got := len(MACTrace(mac, 10, 0.9, 1)); got != 10 {
		t.Errorf("empty-filter MAC trace length %d", got)
	}
	route := &filterset.RouteFilter{Name: "empty"}
	if got := len(RouteTrace(route, 10, 0.9, 1)); got != 10 {
		t.Errorf("empty-filter route trace length %d", got)
	}
}

func TestZipfMixSkewAndDeterminism(t *testing.T) {
	f, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	flows := MACTrace(f, 256, 0.9, 1)
	trace := ZipfMix(flows, 8000, 1.1, 3)
	if len(trace) != 8000 {
		t.Fatalf("trace length %d", len(trace))
	}
	// Every packet must be a member of the flow population.
	population := map[openflowHeaderKey]int{}
	for _, h := range flows {
		population[keyOfHeader(&h)] = 0
	}
	for i, h := range trace {
		k := keyOfHeader(&h)
		if _, ok := population[k]; !ok {
			t.Fatalf("packet %d is not in the flow population", i)
		}
		population[k]++
	}
	// Skew: the hottest flow must dominate the uniform share (8000/256
	// ≈ 31 packets) by a wide margin, and a handful of flows must carry
	// a disproportionate fraction of the trace.
	max, top := 0, 0
	counts := make([]int, 0, len(population))
	for _, c := range population {
		counts = append(counts, c)
		if c > max {
			max = c
		}
	}
	for _, c := range counts {
		if c > len(trace)/len(flows)*4 {
			top += c
		}
	}
	if max < 10*len(trace)/len(flows) {
		t.Errorf("hottest flow carries %d packets, want heavy concentration", max)
	}
	if float64(top)/float64(len(trace)) < 0.3 {
		t.Errorf("hot flows carry %.2f of the trace, want Zipf-like skew", float64(top)/float64(len(trace)))
	}
	// Determinism.
	again := ZipfMix(flows, 8000, 1.1, 3)
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatalf("ZipfMix not deterministic at %d", i)
		}
	}
	// Degenerate inputs.
	if got := ZipfMix(nil, 10, 1.1, 1); got != nil {
		t.Errorf("empty population returned %d packets", len(got))
	}
	if got := ZipfMix(flows, 0, 1.1, 1); got != nil {
		t.Errorf("zero-length trace returned %d packets", len(got))
	}
}

func TestTraceZipfWrappers(t *testing.T) {
	mac, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(MACTraceZipf(mac, 64, 500, 0.9, 1.1, 2)); got != 500 {
		t.Errorf("MACTraceZipf length %d", got)
	}
	route, err := filterset.GenerateRoute("bbra", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(RouteTraceZipf(route, 64, 500, 0.9, 1.1, 2)); got != 500 {
		t.Errorf("RouteTraceZipf length %d", got)
	}
}

// openflowHeaderKey identifies a flow for the Zipf tests.
type openflowHeaderKey struct {
	vlan   uint16
	ethDst uint64
	ethSrc uint64
}

func keyOfHeader(h *openflow.Header) openflowHeaderKey {
	return openflowHeaderKey{vlan: h.VLANID, ethDst: h.EthDst, ethSrc: h.EthSrc}
}
