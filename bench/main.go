// Command bench is the repository's benchmark: one workload per
// invocation, driven end to end (client -> ofproto -> cache tiers ->
// backend -> reply) and measured from outside, through public functions
// only. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ofmtl/internal/filterset"
)

// Shape of the untraced run. --seconds is split evenly over the three
// timed metrics. The two packet metrics' windows are interleaved in
// rounds (two Execute windows, two wire windows) so that each samples
// two thirds of the run: a neighbour that is loud for five seconds costs
// both a few windows, not one of them all. A window is never shorter
// than minWindow, so short smoke runs still time whole operations.
const (
	rounds              = 5
	packetWindowsARound = 2
	packetWindows       = rounds * packetWindowsARound
	flowModWindows      = 5
	// maxExtra bounds how many rounds (or flow-mod windows) a phase adds
	// while its best window stands alone: see windows.confirmed.
	maxExtra       = 2
	setupRepeats   = 3
	recheckPackets = 1 << 16
	minWindow      = 2 * time.Millisecond
	defaultSeconds = 15
	// busyGoroutines is how many goroutines a run keeps runnable in turn:
	// the driving goroutine and the server's connection handler.
	busyGoroutines = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: proto_zipf | lpm256k_uniform | acl_nocache | route_churn")
	seed := flag.Uint64("seed", filterset.DefaultSeed, "seed of the rules, the traffic and the churn order")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds of measurement, split over the timed phases")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	selfcheck := flag.Int("selfcheck", 0, "run every workload this many times, each on another seed, and judge the spread against BENCHMARK.json")
	flag.Parse()

	// The pipeline reads its defaults from these; the benchmark's inputs
	// are its flags alone.
	os.Unsetenv("OFMTL_BACKEND")
	os.Unsetenv("OFMTL_MEGAFLOW")

	if err := run(*name, *seed, *seconds, *traced != 0, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, selfcheck int) error {
	if selfcheck > 0 {
		return selfCheck(selfcheck, seed)
	}
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %v: want a positive length", seconds)
	}
	d := time.Duration(seconds * float64(time.Second))
	printEnv(wl, seed, d)
	var res *result
	if traced {
		res, err = runTraced(wl, seed, full, d, "bench/out")
	} else {
		res, err = runUntraced(wl, seed, full, d)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printEnv records what the numbers depend on besides the code.
func printEnv(wl *workload, seed uint64, d time.Duration) {
	fmt.Printf("workload=%s seed=%d seconds=%.3g\n", wl.name, seed, d.Seconds())
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s %s/%s transport=loopback-tcp (no real link) connections=1 busy_goroutines=%d (closed loop, one runnable at a time)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, busyGoroutines)
	fmt.Printf("sizes: packet_batch=%d flowmod_batch=%d microflow=%d megaflow=%d churn_every=%d packet_windows=%dx%v flowmod_windows=%dx%v packet_rounds=%d (+1 warm-up round, +1 warm-up flow-mod window) setup_repeats=%d statistic=best-window\n",
		packetBatch, flowModBatch, wl.cache, wl.mega, wl.churnEvery,
		packetWindows, window(d/3, packetWindows), flowModWindows, window(d/3, flowModWindows), rounds, setupRepeats)
	if runtime.NumCPU() < busyGoroutines {
		fmt.Printf("warning: %d busy goroutines on %d CPUs: client and server share a core, numbers are not comparable with a 2-core run\n",
			busyGoroutines, runtime.NumCPU())
	}
}

// window is the nominal length of each of n windows filling phase.
func window(phase time.Duration, n int) time.Duration {
	return max(phase/time.Duration(n), minWindow)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(wl *workload, seed uint64, sz sizes, d time.Duration) (*result, error) {
	// Set up several times and report the median: one set-up is a few
	// large allocations and a page-fault storm, and varies more than any
	// timed phase.
	var w *world
	setups := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		w = nil
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = setup(wl, seed, sz); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ruleHash, err := w.reference()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	fmt.Printf("inputs: rules=%d rule_hash=%016x packets=%d trace_hash=%016x churn_table=%d churn_pool=%d\n",
		w.rules, ruleHash, len(w.trace), w.traceHash(), w.churn.table, len(w.churn.pool))

	drv := &driver{w: w}
	sw, err := serve(w.p)
	if err != nil {
		return nil, err
	}
	defer sw.close()
	wireStep := func() (int, error) { return drv.wireStep(sw.cli) }
	flowModStep := func() (int, error) { return drv.wireFlowModStep(sw.cli, w.churn.batch()) }
	pktWindow, fmWindow := window(d/3, packetWindows), window(d/3, flowModWindows)
	var datapath, wire, flowMods windows
	runtime.GC()
	// Round -1 is not scored: it lets the heap, the caches and the
	// connection reach the state the later rounds keep. Past the nominal
	// rounds, a phase goes on (up to maxExtra more) until a second window
	// confirms its best.
	for round := -1; round < rounds+maxExtra; round++ {
		if round >= rounds && datapath.confirmed() && wire.confirmed() {
			break
		}
		dp, err := timed(packetWindowsARound, pktWindow, drv.executeStep)
		if err != nil {
			return nil, err
		}
		if err := drv.restore(); err != nil {
			return nil, err
		}
		wr, err := timed(packetWindowsARound, pktWindow, wireStep)
		if err != nil {
			return nil, err
		}
		if err := drv.restore(); err != nil {
			return nil, err
		}
		if round >= 0 {
			datapath, wire = append(datapath, dp...), append(wire, wr...)
		}
	}
	// The flow-mod windows come last: churn reorders a table's rules, and
	// the packet windows above are about the table as it was built.
	for i := -1; i < flowModWindows+maxExtra; i++ {
		if i >= flowModWindows && flowMods.confirmed() {
			break
		}
		fm, err := timed(1, fmWindow, flowModStep)
		if err != nil {
			return nil, err
		}
		if i >= 0 {
			flowMods = append(flowMods, fm...)
		}
	}
	if err := drv.recheck(recheckPackets); err != nil {
		return nil, err
	}
	if err := sw.close(); err != nil {
		return nil, err
	}

	t := &drv.t
	t.print()
	fmt.Printf("windows: datapath %.4g pkts/s\n         wire %.4g pkts/s\n         flow-mods %.4g cmds/s\n", datapath, wire, flowMods)
	res := &result{
		Correct:   t.failed() == 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"wire_pps":            {wire.best(), "pkts/s"},
			"datapath_pps":        {datapath.best(), "pkts/s"},
			"wire_flowmods_per_s": {flowMods.best(), "cmds/s"},
			"mem_bits_per_rule":   {w.bitsPerRule(), "bits/rule"},
		},
	}
	printMetrics(res.Metrics)
	return res, nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}
