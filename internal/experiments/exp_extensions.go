package experiments

import (
	"fmt"

	"ofmtl/internal/baseline"
	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/lut"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/xrand"
)

// Extension experiments beyond the paper's published artifacts, exploring
// the design space the paper opens.

// runScaling sweeps routing-table size and compares the decomposed
// architecture's memory against a TCAM of equivalent capacity — the
// trade-off that motivates the paper (Section II: TCAM's "memory
// limitation" vs algorithmic lookup).
func runScaling(cfg Config) (*Report, error) {
	rep := &Report{Columns: []string{
		"rules", "mbt_kbit", "luts_kbit", "action_kbit", "arch_total_kbit", "tcam_kbit", "tcam_over_arch",
	}}
	sizes := []int{1000, 5000, 20000, 80000, 184909}
	base, ok := filterset.RouteTargetFor("coza")
	if !ok {
		return nil, fmt.Errorf("coza target missing")
	}
	for _, n := range sizes {
		t := base
		t.Name = fmt.Sprintf("scale%d", n)
		t.Rules = n
		// Scale the unique-value counts with the paper's coza ratios
		// (11% unique high parts, ~4% low parts), floored for tiny sizes.
		t.IPHi = maxI(50, n*base.IPHi/base.Rules)
		t.IPLo = maxI(40, n*base.IPLo/base.Rules)
		if t.IPHi > n {
			t.IPHi = n
		}
		if t.IPLo > n {
			t.IPLo = n
		}
		f := filterset.GenerateRouteFrom(t, cfg.Seed)
		p, err := core.BuildRoute(f, 0)
		if err != nil {
			return nil, err
		}
		mem := p.MemoryReport()
		var mbt, luts float64
		for _, c := range mem.Components {
			switch {
			case contains(c.Name, "-trie/"):
				mbt += float64(c.Bits)
			case contains(c.Name, "/lut"):
				luts += float64(c.Bits)
			}
		}
		action := float64(p.Rules() * 16) // paper-accounting action rows
		archTotal := (mbt + luts + action) / memmodel.Kbit

		// TCAM equivalent: one 64-bit ternary row (32 IP + 32 port, value
		// + mask) per rule.
		tcamKbit := float64(n*(32+32)*2) / memmodel.Kbit
		ratio := 0.0
		if archTotal > 0 {
			ratio = tcamKbit / archTotal
		}
		rep.AddRow(n, mbt/memmodel.Kbit, luts/memmodel.Kbit, action/memmodel.Kbit, archTotal, tcamKbit, ratio)
	}
	rep.AddNote("unique-value counts scale with the coza ratios (11%% high / 4%% low): label sharing grows with the table")
	rep.AddNote("TCAM row: (32-bit prefix + 32-bit port field) x value+mask; architecture: paper accounting")
	return rep, nil
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runAblationLUTWays sweeps the exact-match LUT's bucket associativity and
// reports overflow — the provisioning decision behind the paper's "simple
// hash-based lookup table" for EM fields.
func runAblationLUTWays(cfg Config) (*Report, error) {
	rep := &Report{Columns: []string{
		"ways", "entries", "buckets", "overflow", "kbit",
	}}
	rng := xrand.NewNamed(cfg.Seed, "lutways")
	const entries = 4096 // ingress-port/VLAN scale, with headroom
	keys := make([]uint64, 0, entries)
	seen := map[uint64]struct{}{}
	for len(keys) < entries {
		k := uint64(rng.Intn(1 << 20))
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	for _, ways := range []int{1, 2, 4, 8} {
		l, err := lut.New(20, ways)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if _, _, err := l.Insert(k); err != nil {
				return nil, err
			}
		}
		cost := memmodel.LUTCostOf(l.Len(), l.KeyBits(), l.Peak(), l.Buckets(), l.Ways())
		rep.AddRow(ways, l.Len(), l.Buckets(), l.Overflow(), cost.Kbits)
	}
	rep.AddNote("overflow entries would spill to a secondary structure in hardware; 8-way buckets push overflow below 1%% at 0.75 load")
	return rep, nil
}

// runBaselineSweep compares every Table I algorithm across rule-set sizes,
// extending Table I's single point into curves (who wins where).
func runBaselineSweep(cfg Config) (*Report, error) {
	rep := &Report{Columns: []string{
		"rules", "algorithm", "memory_kbit", "build_entries", "update_records",
	}}
	for _, n := range []int{100, 400, 1200} {
		f := filterset.GenerateACL(fmt.Sprintf("sweep%d", n), n, cfg.Seed)
		for _, c := range baseline.All() {
			if c.Name() == "rfc" && n > 600 {
				// RFC's cross-product build is quadratic in class counts;
				// the sweep caps it where Table I already shows the trend.
				continue
			}
			if err := c.Build(f.Rules); err != nil {
				return nil, err
			}
			entries := n
			if rt, ok := c.(*baseline.Runtime); ok {
				entries = rt.Entries()
			}
			rep.AddRow(n, c.Name(), float64(c.MemoryBits())/memmodel.Kbit, entries, c.UpdateCost())
		}
	}
	rep.AddNote("RFC is omitted beyond 600 rules (cross-product explosion dominates build time); its slope is visible below")
	return rep, nil
}
