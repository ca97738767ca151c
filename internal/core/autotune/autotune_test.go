package autotune

import (
	"testing"
	"time"
)

func TestDefaultModelCoversAllSchemes(t *testing.T) {
	m := DefaultModel()
	for _, s := range Schemes {
		if _, ok := m[s]; !ok {
			t.Fatalf("DefaultModel missing scheme %q", s)
		}
		if lat := m.LatencyNs(s, Signals{Rules: 100, Masks: 4}); lat <= 0 {
			t.Fatalf("scheme %s: non-positive modelled latency %v", s, lat)
		}
	}
}

// The Table I ordering the model must reproduce: tss cost grows with
// mask diversity, lineartcam with rule count, dir24 stays flat, and
// dir24's memory bill dwarfs everyone's at small rule counts.
func TestModelReproducesTableIShape(t *testing.T) {
	m := DefaultModel()
	few := Signals{Rules: 100, Masks: 2}
	many := Signals{Rules: 100_000, Masks: 60}

	if a, b := m.LatencyNs(SchemeTSS, few), m.LatencyNs(SchemeTSS, many); b <= a {
		t.Fatalf("tss latency should grow with masks: %v -> %v", a, b)
	}
	if a, b := m.LatencyNs(SchemeLinearTCAM, few), m.LatencyNs(SchemeLinearTCAM, many); b <= a {
		t.Fatalf("lineartcam latency should grow with rules: %v -> %v", a, b)
	}
	if a, b := m.LatencyNs(SchemeDIR24, few), m.LatencyNs(SchemeDIR24, many); a != b {
		t.Fatalf("dir24 latency should be rule-count independent: %v vs %v", a, b)
	}
	if a, b := m.MemBits(SchemeDIR24, few), m.MemBits(SchemeMBT, few); a <= b {
		t.Fatalf("dir24 fixed slab should dominate mbt at 100 rules: %v vs %v", a, b)
	}
	// At LPM scale the flat array's constant-time lookup must win the
	// default-policy score despite the slab, or the paper's headline
	// mbt->dir24 migration never happens.
	p := DefaultPolicy()
	lpm := Signals{Rules: 10_000, Masks: 24}
	dirScore := p.Score(m.LatencyNs(SchemeDIR24, lpm), m.MemBits(SchemeDIR24, lpm))
	mbtScore := p.Score(m.LatencyNs(SchemeMBT, lpm), m.MemBits(SchemeMBT, lpm))
	if dirScore >= mbtScore*(1-p.Margin) {
		t.Fatalf("dir24 should beat mbt past the margin on LPM tables: dir24=%v mbt=%v", dirScore, mbtScore)
	}
}

func TestDecideHysteresis(t *testing.T) {
	p := Policy{Margin: 0.30, MinDwell: 10 * time.Second}
	cands := func(mbt, tss float64) []Candidate {
		return []Candidate{
			{Scheme: SchemeMBT, Score: mbt, Eligible: true},
			{Scheme: SchemeTSS, Score: tss, Eligible: true},
		}
	}

	// 50% better and past the dwell: migrate.
	d := p.Decide(SchemeMBT, 1000, cands(1000, 500), time.Minute)
	if !d.Migrate || d.Best != SchemeTSS {
		t.Fatalf("want migrate to tss, got %+v", d)
	}
	// 20% better: inside the margin, stay.
	if d := p.Decide(SchemeMBT, 1000, cands(1000, 800), time.Minute); d.Migrate {
		t.Fatalf("20%% improvement must not clear a 30%% margin: %+v", d)
	}
	// Past the margin but inside the dwell: stay (but still named best).
	d = p.Decide(SchemeMBT, 1000, cands(1000, 500), time.Second)
	if d.Migrate || d.Best != SchemeTSS {
		t.Fatalf("dwell must hold the migration: %+v", d)
	}
	// Incumbent already best: stay.
	if d := p.Decide(SchemeMBT, 400, cands(400, 500), time.Minute); d.Migrate || d.Best != SchemeMBT {
		t.Fatalf("incumbent best: %+v", d)
	}
	// Ineligible challengers never win regardless of score.
	d = p.Decide(SchemeMBT, 1000, []Candidate{
		{Scheme: SchemeMBT, Score: 1000, Eligible: true},
		{Scheme: SchemeDIR24, Score: 1, Eligible: false},
	}, time.Minute)
	if d.Migrate || d.Best != SchemeMBT {
		t.Fatalf("ineligible challenger must not win: %+v", d)
	}
}

// An incumbent that went ineligible (the table's rules outgrew it) is
// evicted immediately, ignoring margin and dwell.
func TestDecideForcedEviction(t *testing.T) {
	p := Policy{Margin: 0.99, MinDwell: time.Hour}
	d := p.Decide(SchemeDIR24, 100, []Candidate{
		{Scheme: SchemeDIR24, Score: 100, Eligible: false},
		{Scheme: SchemeMBT, Score: 5000, Eligible: true},
	}, 0)
	if !d.Migrate || d.Best != SchemeMBT {
		t.Fatalf("ineligible incumbent must be evicted: %+v", d)
	}
}

func TestScore(t *testing.T) {
	p := Policy{MemWeight: 1}
	if s := p.Score(100, 0); s != 100 {
		t.Fatalf("zero memory: want pure latency, got %v", s)
	}
	if s := p.Score(100, 1e9); s != 200 {
		t.Fatalf("one Gbit at weight 1 should double the score, got %v", s)
	}
	if s := p.Score(100, 5e8); s != 150 {
		t.Fatalf("half a Gbit: want 150, got %v", s)
	}
}
