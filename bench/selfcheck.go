package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// contract is BENCHMARK.json as the program and its tests read it.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// selfCheck is the A/A check: every workload n times, each run a fresh
// process on another seed, as the benchmark's driver runs it. Per
// end-to-end metric it prints the median, the quartile spread as a share
// of the median (what the driver holds against the bound) and the
// min-max spread. Two invocations on one commit must agree median to
// median within each bound.
func selfCheck(n int, seed uint64) error {
	if n < 2 {
		return fmt.Errorf("--selfcheck %d: quartiles need at least 2 runs", n)
	}
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("| workload | metric | median | IQR/median | (max-min)/median | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	failed := false
	for _, wl := range c.Workloads {
		values := map[string][]float64{}
		for i := range n {
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", strconv.FormatUint(seed+uint64(i), 10),
				"--seconds", strconv.Itoa(c.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.Name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: last line is not a result: %w", wl.Name, i, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s run %d: %d of %d operations failed", wl.Name, i, res.Failed, res.Attempted)
			}
			for _, m := range c.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					return fmt.Errorf("%s run %d: metric %s [%s] missing from the result", wl.Name, i, m.Name, m.Unit)
				}
				values[m.Name] = append(values[m.Name], got.Value)
			}
		}
		for _, m := range c.EndToEnd {
			vs := values[m.Name]
			sort.Float64s(vs)
			q1, q3 := quartiles(vs)
			med := median(vs)
			iqr, span := (q3-q1)/med, (vs[len(vs)-1]-vs[0])/med
			verdict := "pass"
			switch {
			case m.Name == "setup_s":
				verdict = "pass (spread not held against set-up)"
			case iqr > m.Bound:
				verdict, failed = "FAIL", true
			}
			fmt.Printf("| %s | %s [%s] | %.6g | %.2f%% | %.2f%% | %g%% | %s |\n",
				wl.Name, m.Name, m.Unit, med, 100*iqr, 100*span, 100*m.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("a metric spreads wider than its bound")
	}
	return nil
}

// quartiles returns the first and third quartile of sorted values the
// way Python's statistics.quantiles(values, n=4) does.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(i int) float64 {
		m := len(sorted) + 1
		j, delta := i*m/4, float64(i*m%4)
		j = min(max(j, 1), len(sorted)-1)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}
