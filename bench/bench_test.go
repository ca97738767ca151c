package main

import (
	"testing"
	"time"

	"ofmtl/internal/filterset"
)

func readBenchmarkJSON(t *testing.T) *contract {
	t.Helper()
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fingerprint is what one seed must always produce.
type fingerprint struct {
	rules, trace uint64
	bitsPerRule  float64
}

func fingerprintOf(t *testing.T, wl *workload, seed uint64) fingerprint {
	t.Helper()
	w, err := setup(wl, seed, tiny)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := w.reference()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint{rules: rules, trace: w.traceHash(), bitsPerRule: w.bitsPerRule()}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			a := fingerprintOf(t, wl, filterset.DefaultSeed)
			if b := fingerprintOf(t, wl, filterset.DefaultSeed); a != b {
				t.Errorf("one seed, two inputs: %+v then %+v", a, b)
			}
			// The rule sets are fixed data (ruleSeed); the seed draws the
			// traffic over them.
			c := fingerprintOf(t, wl, filterset.DefaultSeed+1)
			if a.trace == c.trace {
				t.Errorf("two seeds, one trace: %+v and %+v", a, c)
			}
			if a.rules != c.rules || a.bitsPerRule != c.bitsPerRule {
				t.Errorf("the seed moved the rule set: %+v and %+v", a, c)
			}
		})
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}

// checkResult holds a smoke run's result against the metric list
// BENCHMARK.json promises for that kind of run.
func checkResult(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			res, err := runUntraced(wl, filterset.DefaultSeed, tiny, 60*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, b.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want above zero", name, m.Value)
				}
			}
			res, err = runTraced(wl, filterset.DefaultSeed, tiny, 100*time.Millisecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, b.PerLayer)
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}
