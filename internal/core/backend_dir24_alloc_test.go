package core

import (
	"testing"

	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// dir24AllocBackend builds a populated dir24 backend with both direct
// and spilled slots for the hot-path tests.
func dir24AllocBackend(t testing.TB) *dir24Backend {
	t.Helper()
	cfg := lpmTableConfig()
	cfg.Backend = BackendDIR24
	b, err := newDIR24Backend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(248)
	for i := 0; i < 512; i++ {
		if err := b.Insert(randomLPMEntry(rng, 1+rng.Intn(6)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Pin one known direct region and one known spilled region.
	for _, e := range []*openflow.FlowEntry{
		{
			Priority:     24,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A010200, 24)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
		},
		{
			Priority:     32,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0B020304, 32)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(2))},
		},
	} {
		if err := b.Insert(e, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestDIR24LookupZeroAlloc is the hot-path regression gate: dir24
// Lookup, traced or not, must not allocate, on the one-read direct
// path and the two-read spill path alike.
func TestDIR24LookupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc regression measured without -race")
	}
	b := dir24AllocBackend(t)
	h := new(openflow.Header)
	var tr flowMask
	var g lookupGroup
	dsts := []uint32{0x0A010277, 0x0B020304, 0xC0FFEE00}
	i := 0
	measure := func(name string, f func()) {
		t.Helper()
		for w := 0; w < 64; w++ {
			f()
		}
		if n := testing.AllocsPerRun(512, f); n != 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, n)
		}
	}
	measure("Lookup", func() {
		h.IPv4Dst = dsts[i%len(dsts)]
		g.lookupOne(b, h, nil)
		i++
	})
	measure("Lookup traced", func() {
		h.IPv4Dst = dsts[i%len(dsts)]
		tr.reset()
		g.lookupOne(b, h, &tr)
		i++
	})
}

// TestDIR24TracedBits pins the consulted-bits contract the megaflow
// tier depends on: a direct-slot lookup consults exactly the top 24
// bits of the field (any header agreeing on them lands on the same
// slot and outcome), and a spilled-slot lookup consults all 32. The
// expectations are built through the same orField primitives the
// tracer uses, so the test pins semantics, not key-layout constants.
func TestDIR24TracedBits(t *testing.T) {
	cfg := lpmTableConfig()
	cfg.Backend = BackendDIR24
	b, err := newDIR24Backend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*openflow.FlowEntry{
		{
			Priority:     16,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A010000, 16)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
		},
		{
			Priority:     28,
			Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A020300, 28)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(2))},
		},
	} {
		if err := b.Insert(e, 1<<20); err != nil {
			t.Fatal(err)
		}
	}

	var want24, want32 flowMask
	want24.orField(openflow.FieldIPv4Dst, 24)
	want32.orFieldFull(openflow.FieldIPv4Dst)

	cases := []struct {
		name string
		dst  uint32
		hit  bool
		want flowMask
	}{
		// Direct slots: a hit under the /16 and a miss far away both
		// consult only the 24-bit index.
		{"direct hit", 0x0A01FF42, true, want24},
		{"direct miss", 0xDEADBEEF, false, want24},
		// The /28 spilled its slot: any address landing on that slot
		// consults the low byte too — including ones the /28 does not
		// match (hit via the /16? no: 0x0A0203xx is outside 0x0A01/16,
		// so the non-covered half of the slot misses).
		{"spill hit", 0x0A020305, true, want32},
		{"spill miss in slot", 0x0A0203FF, false, want32},
	}
	for _, tc := range cases {
		var tr flowMask
		_, ok := new(lookupGroup).lookupOne(b, &openflow.Header{IPv4Dst: tc.dst}, &tr)
		if ok != tc.hit {
			t.Errorf("%s: matched=%v, want %v", tc.name, ok, tc.hit)
		}
		if tr != tc.want {
			t.Errorf("%s: consulted mask %x, want %x", tc.name, tr, tc.want)
		}
		// The traced and untraced paths agree on the outcome.
		if _, plain := new(lookupGroup).lookupOne(b, &openflow.Header{IPv4Dst: tc.dst}, nil); plain != ok {
			t.Errorf("%s: Lookup untraced=%v, traced=%v", tc.name, plain, ok)
		}
	}
}
