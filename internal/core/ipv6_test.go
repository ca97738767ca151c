package core

import (
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// IPv6 exercises the architecture's widest case: a 128-bit field split
// into eight 16-bit partitions, each with its own 3-level trie. The paper
// lists the IPv6 fields in Table II (LPM, 128 bits) but evaluates only
// IPv4 and Ethernet; these tests cover the extension.

func randomU128(rng *xrand.Source) bitops.U128 {
	return bitops.U128{Hi: rng.Uint64(), Lo: rng.Uint64()}
}

// refV6Entry is one prefix for the brute-force reference.
type refV6Entry struct {
	v    bitops.U128
	plen int
}

func refV6Lookup(entries []refV6Entry, addr bitops.U128) (int, bool) {
	best, bestIdx := -1, -1
	for i, e := range entries {
		if bitops.PrefixContains128(e.v, e.plen, 128, addr) && e.plen > best {
			best, bestIdx = e.plen, i
		}
	}
	return bestIdx, bestIdx >= 0
}

func TestIPv6SearcherPartitions(t *testing.T) {
	s, err := NewPrefixFieldSearcher(openflow.FieldIPv6Dst)
	if err != nil {
		t.Fatal(err)
	}
	if s.Partitions() != 8 {
		t.Fatalf("IPv6 partitions = %d, want 8", s.Partitions())
	}
}

func TestIPv6LongestPrefixMatch(t *testing.T) {
	tbl, err := NewLookupTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv6Dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2001:db8::/32, 2001:db8:1::/48, exact /128, and a default route.
	base := bitops.U128{Hi: 0x20010DB8_00000000}
	sub := bitops.U128{Hi: 0x20010DB8_00010000}
	host := bitops.U128{Hi: 0x20010DB8_00010000, Lo: 0x1}
	prefixes := []struct {
		v    bitops.U128
		plen int
		port uint32
	}{
		{bitops.U128{}, 0, 1},
		{base, 32, 2},
		{sub, 48, 3},
		{host, 128, 4},
	}
	for _, p := range prefixes {
		e := &openflow.FlowEntry{
			Priority: p.plen,
			Matches:  []openflow.Match{openflow.Prefix128(openflow.FieldIPv6Dst, p.v, p.plen)},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(p.port)),
			},
		}
		if err := tbl.Insert(e); err != nil {
			t.Fatalf("inserting /%d: %v", p.plen, err)
		}
	}
	cases := []struct {
		addr bitops.U128
		want int // expected priority (= plen of winner)
	}{
		{host, 128},
		{bitops.U128{Hi: 0x20010DB8_00010000, Lo: 0x2}, 48},
		{bitops.U128{Hi: 0x20010DB8_00990000}, 32},
		{bitops.U128{Hi: 0x20020000_00000000}, 0},
	}
	for i, c := range cases {
		h := &openflow.Header{IPv6Dst: c.addr}
		m, ok := tbl.Classify(h)
		if !ok || m.Priority != c.want {
			t.Errorf("case %d (%v): priority %d/%v, want %d", i, c.addr, m.Priority, ok, c.want)
		}
	}
}

// Property: the eight-trie decomposition agrees with brute-force 128-bit
// LPM over random prefix sets.
func TestIPv6MatchesReference(t *testing.T) {
	rng := xrand.New(606)
	tbl, err := NewLookupTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv6Dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	var entries []refV6Entry
	seen := map[refV6Entry]bool{}
	for i := 0; i < 250; i++ {
		plen := rng.Intn(129)
		v := randomU128(rng).And(bitops.Mask128(plen, 128))
		e := refV6Entry{v: v, plen: plen}
		if seen[e] {
			continue
		}
		seen[e] = true
		fe := &openflow.FlowEntry{
			Priority: plen,
			Matches:  []openflow.Match{openflow.Prefix128(openflow.FieldIPv6Dst, v, plen)},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(i))),
			},
		}
		if err := tbl.Insert(fe); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		entries = append(entries, e)
	}
	for i := 0; i < 2000; i++ {
		var addr bitops.U128
		if rng.Float64() < 0.7 && len(entries) > 0 {
			e := entries[rng.Intn(len(entries))]
			mask := bitops.Mask128(e.plen, 128)
			addr = e.v.And(mask).Or(randomU128(rng).And(mask.Not()))
		} else {
			addr = randomU128(rng)
		}
		h := &openflow.Header{IPv6Dst: addr}
		got, gotOK := tbl.Classify(h)
		wantIdx, wantOK := refV6Lookup(entries, addr)
		if gotOK != wantOK {
			t.Fatalf("probe %d: match %v, reference %v", i, gotOK, wantOK)
		}
		if gotOK && got.Priority != entries[wantIdx].plen {
			t.Fatalf("probe %d: priority %d, reference plen %d", i, got.Priority, entries[wantIdx].plen)
		}
	}
}

func TestIPv6RemovalDrains(t *testing.T) {
	s, err := NewPrefixFieldSearcher(openflow.FieldIPv6Src)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	type ins struct {
		m openflow.Match
	}
	var installed []ins
	for i := 0; i < 100; i++ {
		plen := rng.Intn(129)
		v := randomU128(rng).And(bitops.Mask128(plen, 128))
		m := openflow.Prefix128(openflow.FieldIPv6Src, v, plen)
		if _, err := s.Insert(m); err != nil {
			t.Fatal(err)
		}
		installed = append(installed, ins{m})
	}
	for i, in := range installed {
		if err := s.Remove(in.m); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if s.UniqueValues() != 0 {
		t.Errorf("unique values = %d after drain", s.UniqueValues())
	}
	for i := 0; i < 8; i++ {
		if nodes := s.PartitionTrie(i).StoredNodes(); nodes != 32 {
			t.Errorf("partition %d: %d stored nodes after drain, want 32 (root only)", i, nodes)
		}
	}
}

func TestIPv6MemoryReport(t *testing.T) {
	s, err := NewPrefixFieldSearcher(openflow.FieldIPv6Dst)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	for i := 0; i < 500; i++ {
		v := randomU128(rng)
		if _, err := s.Insert(openflow.Exact128(openflow.FieldIPv6Dst, v)); err != nil {
			t.Fatal(err)
		}
	}
	var rep memmodel.SystemReport
	s.memory(&memAccount{report: &rep, prefix: "ipv6"})
	// Eight partitions x three levels of trie memories plus the combiner.
	if got := len(rep.Components); got != 8*3+1 {
		t.Errorf("components = %d, want 25", got)
	}
}
