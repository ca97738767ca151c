// Package autotune is the pure decision core of the self-tuning backend
// subsystem: a per-table cost model over the repository's lookup schemes
// (mbt, tss, lineartcam, dir24), fitted once offline to measured lookup
// costs, plus the hysteresis policy that turns scores into migrate/stay
// decisions.
//
// The package deliberately knows nothing about pipelines, snapshots or
// locks — it maps a table's shape (rule count, mask diversity, field
// count) to scores, and scores to a decision. Nothing here reads a clock
// except the policy's dwell, so a decision is a function of the table's
// shape, the policy and the time since the last migration, whatever the
// machine's load. The core package owns signal collection and the
// actual live migration.
package autotune

import "time"

// Scheme names mirror the core backend kinds. They are duplicated here
// (rather than imported) so the decision core stays dependency-free.
const (
	SchemeMBT        = "mbt"
	SchemeTSS        = "tss"
	SchemeLinearTCAM = "lineartcam"
	SchemeDIR24      = "dir24"
)

// Schemes lists the candidate schemes in canonical (wire-code) order.
var Schemes = []string{SchemeMBT, SchemeTSS, SchemeLinearTCAM, SchemeDIR24}

// Signals is one table's shape, gathered by the advisor from the counters
// the table maintains on every insert and remove and from its
// configuration.
type Signals struct {
	// Rules is the installed rule count.
	Rules int
	// Masks is the number of distinct match-mask shapes (the tuple
	// count a TSS backend would hold).
	Masks int
	// Fields is the number of fields the table matches on.
	Fields int
}

// SchemeCost is one scheme's analytic cost surface. Latency is
// BaseNs + PerRuleNs·rules + PerMaskNs·masks + PerFieldNs·fields; memory
// is FixedBits + PerRuleBits·rules.
type SchemeCost struct {
	BaseNs      float64
	PerRuleNs   float64
	PerMaskNs   float64
	PerFieldNs  float64
	FixedBits   float64
	PerRuleBits float64
}

// Model maps scheme name to its cost surface.
type Model map[string]SchemeCost

// DefaultModel is the cost model fitted to the root package's
// BenchmarkLookupPerBackend: the median of three runs of each scheme's
// LookupTable.Classify on every shape that benchmark times (the 1000-rule
// ACL, the 10k-prefix LPM table, 512 and 128 /24 prefixes, and the four
// tables of the gozb/coza prototype) on a shared 2-core Xeon. The latency
// constants are the least-squares fit in log error subject to one
// condition: under DefaultPolicy, every shape's measured-fastest scheme
// scores best, clear of the runner-up and (unless it is mbt) of mbt's
// margin by about 5 %. The memory constants are the median accounted
// bits per rule (dir24's slab is exact: 2^24 slots of 32 bits). The
// Table I ordering survives the fit:
//
//   - mbt: one search per field plus the index stage; no base cost, about
//     20 ns per prefix length and 194 ns per field.
//   - tss: one hash probe per tuple (≈100 ns each), slowly growing with
//     the rule count; the cheapest memory.
//   - lineartcam: a linear scan, ≈7 ns per rule; the priciest memory.
//   - dir24: two dependent loads (≈90 ns with the lookup around them)
//     regardless of rule count, but a fixed 2^24-slot slab (≈537 Mbit)
//     plus per-rule bits.
//
// The field term exists because the prototype's two MAC tables share
// rule count and mask count, yet mbt is the faster scheme on the
// one-field table and tss, by 3x, on the two-field one. Range rules are
// not priced: tss scans them linearly, but the ACL ranks right without
// a term for it.
func DefaultModel() Model {
	return Model{
		SchemeMBT:        {PerMaskNs: 20.6, PerFieldNs: 194, PerRuleBits: 122},
		SchemeTSS:        {BaseNs: 39, PerRuleNs: 0.0112, PerMaskNs: 103.5, PerRuleBits: 97},
		SchemeLinearTCAM: {BaseNs: 1.3, PerRuleNs: 6.9, PerRuleBits: 160},
		SchemeDIR24:      {BaseNs: 89, FixedBits: 1 << 29, PerRuleBits: 32},
	}
}

// LatencyNs is the modelled per-lookup latency for scheme under s.
func (m Model) LatencyNs(scheme string, s Signals) float64 {
	c := m[scheme]
	return c.BaseNs + c.PerRuleNs*float64(s.Rules) + c.PerMaskNs*float64(s.Masks) + c.PerFieldNs*float64(s.Fields)
}

// MemBits is the modelled memory footprint for scheme under s.
func (m Model) MemBits(scheme string, s Signals) float64 {
	c := m[scheme]
	return c.FixedBits + c.PerRuleBits*float64(s.Rules)
}

// Policy is the hysteresis configuration that keeps the advisor from
// flapping between near-equal schemes.
type Policy struct {
	// Margin is the fractional score improvement a challenger must
	// show over the incumbent before a migration is worth its cost.
	// 0.30 means "at least 30% better".
	Margin float64
	// MinDwell is the minimum time after a migration before the table
	// may migrate again.
	MinDwell time.Duration
	// MemWeight scales how strongly memory inflates a scheme's score:
	// score = latency · (1 + MemWeight·memBits/MemScale). 0 scores on
	// latency alone.
	MemWeight float64
	// MemScale is the memory normalisation constant in bits (default
	// 1e9: one Gbit of modelled memory doubles the score at weight 1).
	MemScale float64
}

// DefaultPolicy returns the default hysteresis knobs: 30% margin, 10s
// dwell, memory weighted at one Gbit-doubles-the-score.
func DefaultPolicy() Policy {
	return Policy{Margin: 0.30, MinDwell: 10 * time.Second, MemWeight: 1, MemScale: 1e9}
}

// Score folds a latency figure and a memory footprint into one
// comparable scalar (lower is better).
func (p Policy) Score(latNs, memBits float64) float64 {
	scale := p.MemScale
	if scale <= 0 {
		scale = 1e9
	}
	if latNs < 1 {
		latNs = 1
	}
	return latNs * (1 + p.MemWeight*memBits/scale)
}

// Candidate is one scored scheme.
type Candidate struct {
	Scheme   string
	Score    float64
	Eligible bool
}

// Decision is the advisor's verdict for one table.
type Decision struct {
	// Best is the lowest-scoring eligible scheme (the incumbent when
	// nothing eligible beats it).
	Best string
	// Migrate reports whether Best should replace the incumbent now —
	// it clears the margin and the dwell.
	Migrate bool
}

// Decide applies the hysteresis policy: the best eligible challenger
// must beat the incumbent's score by at least Margin, and the table
// must have dwelt at least MinDwell since its last migration. An
// incumbent that is itself ineligible (its table's rule shape outgrew
// it) is evicted unconditionally — correctness beats hysteresis.
func (p Policy) Decide(incumbent string, incumbentScore float64, cands []Candidate, sinceLastMigration time.Duration) Decision {
	incumbentEligible := false
	challenger, challengerScore := "", 0.0
	for _, c := range cands {
		if c.Scheme == incumbent {
			incumbentEligible = incumbentEligible || c.Eligible
			continue
		}
		if !c.Eligible {
			continue
		}
		if challenger == "" || c.Score < challengerScore {
			challenger, challengerScore = c.Scheme, c.Score
		}
	}
	if !incumbentEligible && challenger != "" {
		// Forced off: the incumbent can no longer serve the rule set.
		return Decision{Best: challenger, Migrate: true}
	}
	if challenger == "" || challengerScore >= incumbentScore {
		return Decision{Best: incumbent}
	}
	best := challenger
	if sinceLastMigration < p.MinDwell {
		return Decision{Best: best}
	}
	if challengerScore > incumbentScore*(1-p.Margin) {
		return Decision{Best: best}
	}
	return Decision{Best: best, Migrate: true}
}
