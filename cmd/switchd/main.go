// Command switchd runs a software switch hosting the multiple-table
// lookup pipeline behind the repository's control protocol. A controller
// (cmd/ofctl) connects over TCP to install flow entries, inject packets
// and read the switch report.
//
// Usage:
//
//	switchd -listen 127.0.0.1:6653                 # empty MAC+routing prototype
//	switchd -listen :6653 -mac gozb -route coza    # preloaded worst-case prototype
//	switchd -listen :6653 -mac gozb -workers 8     # 8-way parallel batch classification
//	switchd -listen :6653 -mac gozb -cache 0       # disable the microflow fast path
//	switchd -listen :6653 -route coza -megaflow 0  # disable the megaflow wildcard tier
//	switchd -listen :6653 -backend tss             # tuple-space search in every table
//	switchd -listen :6653 -backend auto -autotune 5s # advisor-driven live backend migration
//	switchd -listen :6653 -memlog 30s              # periodic switch report in the log
//	switchd -listen :6653 -membudget 40000000      # 40 Mbit process memory budget
//	switchd -listen :6653 -flow-expiry 500ms       # idle/hard timeout sweep interval
//	switchd -listen :6653 -read-timeout 30s        # keepalive probe / dead-peer interval
//
// -backend selects the lookup scheme tables run (mbt, the paper's
// multi-bit-trie architecture; tss, tuple space search; lineartcam, the
// TCAM cost model; dir24, the DIR-24-8 flat array for single-field IPv4
// prefix tables) when the pipeline layout does not pin one per table; a
// -pipeline file may pin schemes per table with "backend" properties. A
// default of dir24 applies only to tables shaped as a single 32-bit
// longest-prefix-match field — other tables fall back to mbt, since a
// process-wide default is advisory; an explicit per-table pin on an
// unservable shape is an error. The pseudo-backend "auto" starts each
// table on mbt and hands scheme choice to the advisor: -autotune arms a
// background loop that scores every candidate scheme, the incumbent
// included, from the table's rule-set shape with a cost model fitted
// offline to measured lookup costs (the advisor times nothing), then
// migrates the table live when a challenger beats the incumbent past a
// hysteresis margin — the new backend is
// built off-path from the canonical rule store and swapped at a commit
// boundary with a single snapshot publish, rolling back on failure. The
// advisor's view (signals, per-scheme scores, migration history) is a
// section of the stats report (ofctl stats).
// -memlog logs the stats report on an interval, through the same
// printer as ofctl stats; the switch logs it once more on shutdown.
//
// Packet lookups execute lock-free against the pipeline's RCU-style
// snapshot, so concurrent controller connections classify in parallel;
// -workers bounds the per-batch fan-out of packet-batch messages. Two
// tiers of one flow cache front the multi-table walk: the microflow tier
// (-cache, entries) is its exact-match tuple and absorbs exact flow
// repeats, and the megaflow tier (-megaflow, entries) holds its masked
// tuples and absorbs whole regions — each walk traces the header bits it
// consulted and installs its outcome under that mask, so new flows
// agreeing on the consulted bits skip the walk entirely. Both
// tiers' hit/miss counters are sections of the stats report (ofctl
// stats).
//
// Flow-table mutations arrive as flow-mod transactions: a flow-mod batch
// message validates and applies atomically with one snapshot version
// however many commands it carries. While a cache tier serves, the
// batch logs a record of its rules and both tiers keep their entries:
// a reader revalidates an older entry against the records when it meets
// it, so the entries the batch does not touch keep hitting. Transaction counters (committed transactions,
// commands, rejected transactions) are reported through the stats report
// and logged on shutdown.
//
// -membudget arms a process-wide memory budget in modelled bits: a
// flow-mod transaction that would push the pipeline's accounted memory
// over the budget is rejected atomically — the controller sees an
// OpenFlow-style TABLE_FULL error and committed state is untouched. As
// usage approaches the budget the cache tiers degrade gracefully
// (megaflow first, then microflow, re-growing when pressure clears);
// the transitions are visible in ofctl stats. Per-table
// budgets can additionally be pinned in a -pipeline layout file.
//
// -read-timeout arms the wire keepalive: a peer idle at a frame
// boundary that long is probed with an echo request and dropped if it
// stays silent through a second interval; a peer stalled mid-frame is
// dropped outright. -write-timeout bounds each reply write. On SIGINT /
// SIGTERM the server drains gracefully — in-flight transactions finish
// and flush their replies — force-closing only after -drain expires.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "switchd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:6653", "control channel listen address")
		macName  = flag.String("mac", "", "preload a Table III MAC filter (e.g. gozb)")
		rtName   = flag.String("route", "", "preload a Table IV routing filter (e.g. coza)")
		seed     = flag.Uint64("seed", filterset.DefaultSeed, "generation seed for preloads")
		pipeFile = flag.String("pipeline", "", "JSON pipeline layout (TTP-style); overrides the built-in prototype")
		workers  = flag.Int("workers", 0, "goroutines per packet batch (0 = GOMAXPROCS, 1 = sequential)")
		cacheSz  = flag.Int("cache", 1<<16, "microflow cache entries (0 = disable the fast path)")
		megaSz   = flag.Int("megaflow", 1<<14, "megaflow (wildcard) cache entries (0 = disable the tier)")
		backend  = flag.String("backend", "", "default per-table lookup backend: mbt | tss | lineartcam | dir24 | auto (dir24 applies only to single-field IPv4 prefix tables; others fall back to mbt; auto lets the advisor pick and migrate live)")
		autotune = flag.Duration("autotune", 0, "advisor interval for auto-backend tables: score candidate schemes from each table's rule-set shape and migrate live when one wins (0 = disabled)")
		memlog   = flag.Duration("memlog", 0, "interval for periodic memory-accounting logs (0 = disabled)")
		budget   = flag.Uint64("membudget", 0, "process-wide memory budget in modelled bits (0 = unlimited); over-budget flow-mods are rejected TABLE_FULL")
		expiry   = flag.Duration("flow-expiry", time.Second, "flow idle/hard timeout sweep interval (0 = timeouts never fire)")
		readTO   = flag.Duration("read-timeout", time.Minute, "per-read deadline and keepalive probe interval (0 = disabled)")
		writeTO  = flag.Duration("write-timeout", 30*time.Second, "per-write deadline on replies (0 = disabled)")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain window before in-flight connections are force-closed")
	)
	flag.Parse()
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *cacheSz < 0 {
		return fmt.Errorf("-cache must be >= 0, got %d", *cacheSz)
	}
	if *megaSz < 0 {
		return fmt.Errorf("-megaflow must be >= 0, got %d", *megaSz)
	}

	var pipeline *core.Pipeline
	var err error
	if *pipeFile != "" {
		if *macName != "" || *rtName != "" {
			return fmt.Errorf("-pipeline is mutually exclusive with -mac/-route preloads")
		}
		pipeline, err = loadPipeline(*pipeFile, *backend)
	} else {
		pipeline, err = buildPipeline(*macName, *rtName, *seed, *backend)
	}
	if err != nil {
		return err
	}
	pipeline.SetWorkers(*workers)
	pipeline.SetCacheSize(*cacheSz)
	pipeline.SetMegaflowSize(*megaSz)
	if *budget > 0 {
		pipeline.SetMemoryBudget(*budget)
	}
	log.Printf("switchd: pipeline ready: %d tables, %d rules", len(pipeline.Tables()), pipeline.Rules())
	for _, tm := range pipeline.MemoryStats().Tables {
		log.Printf("switchd: table %d: backend %s, %d rules, %d bits accounted", tm.Table, tm.Backend, tm.Rules, tm.TotalBits())
	}
	mem := pipeline.MemoryReport()
	log.Printf("switchd: modelled memory: %.2f Mbit in %d M20K blocks", mem.TotalMbits(), mem.Blocks)
	if *budget > 0 {
		used := pipeline.MemoryStats().TotalBits
		if used > *budget {
			return fmt.Errorf("preloaded pipeline uses %d bits, over the %d-bit -membudget", used, *budget)
		}
		log.Printf("switchd: memory budget %d bits (%.3f Mbit), %d bits in use; over-budget flow-mods rejected TABLE_FULL",
			*budget, float64(*budget)/1e6, used)
	}
	effective := *workers
	if effective == 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	log.Printf("switchd: lock-free snapshot lookups, batch fan-out %d workers", effective)
	if st := pipeline.CacheStats(); st.Entries > 0 {
		log.Printf("switchd: microflow tier: %d exact-match slots, preallocated and filled in place, valid for one snapshot version", st.Entries)
	} else {
		log.Printf("switchd: microflow tier disabled")
	}
	if st := pipeline.MegaflowStats(); st.Entries > 0 {
		log.Printf("switchd: megaflow tier: %d entries, traced-mask wildcard caching", st.Entries)
	} else {
		log.Printf("switchd: megaflow tier disabled")
	}
	// Publish the initial snapshot now so the first packet doesn't pay
	// for it.
	pipeline.Refresh()
	if *expiry > 0 {
		// Background expiry sweeper: each tick batches every expired
		// flow into one transaction — one snapshot publish and one
		// precise cache invalidation per sweep, however many flows fire.
		pipeline.StartExpiry(*expiry)
		defer pipeline.StopExpiry()
		log.Printf("switchd: flow expiry sweeper armed, %v interval", *expiry)
	} else {
		log.Printf("switchd: flow expiry disabled; idle/hard timeouts never fire")
	}
	if *autotune > 0 {
		// Background advisor: each tick scores every auto table's
		// candidate backends from its rule-set shape and migrates the table
		// live — rebuild off-path, one snapshot publish at the swap —
		// when a challenger beats the incumbent past the hysteresis
		// margin.
		pipeline.StartAutotune(*autotune, log.Printf)
		defer pipeline.StopAutotune()
		log.Printf("switchd: backend advisor armed, %v interval; auto tables migrate live", *autotune)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *listen, err)
	}
	log.Printf("switchd: control channel on %s", l.Addr())

	srv := ofproto.NewServerWithOptions(pipeline, ofproto.ServerOptions{
		Logf:         log.Printf,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
	})
	if *readTO > 0 {
		log.Printf("switchd: wire keepalive armed: probe after %v idle, drop after %v silence", *readTO, 2**readTO)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()

	if *memlog > 0 {
		// Periodic report: the same one ofctl stats prints. Only the
		// table and advisor sections take the pipeline write lock, and
		// only briefly.
		stopLog := make(chan struct{})
		defer close(stopLog)
		go func() {
			ticker := time.NewTicker(*memlog)
			defer ticker.Stop()
			for {
				select {
				case <-stopLog:
					return
				case <-ticker.C:
					logStats(pipeline)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("switchd: received %v, draining connections (up to %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("switchd: drain window expired, connections force-closed: %v", err)
		}
		logStats(pipeline)
		sc := srv.Counters()
		log.Printf("switchd: wire layer: %d connections accepted, %d dead peers dropped, %d handler panics recovered",
			sc.Accepted, sc.DeadPeers, sc.Panics)
		return <-errCh
	}
}

// logStats logs the switch report, one log line per report line.
func logStats(p *core.Pipeline) {
	var b strings.Builder
	_ = ofproto.CollectStats(p).WriteText(&b) // a strings.Builder never fails a write
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		log.Printf("switchd: %s", line)
	}
}

// loadPipeline builds a pipeline from a TTP-style JSON layout file.
// backend is the -backend default for tables the layout leaves unpinned.
func loadPipeline(path, backend string) (*core.Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening pipeline layout: %w", err)
	}
	defer func() { _ = f.Close() }()
	cfg, err := core.ParsePipelineConfig(f)
	if err != nil {
		return nil, err
	}
	log.Printf("switchd: pipeline layout %q from %s", cfg.Name, path)
	return cfg.BuildWithDefault(backend)
}

// buildPipeline assembles the 4-table prototype under the selected
// lookup backend, preloading the named filters when given (empty names
// preload nothing).
func buildPipeline(macName, rtName string, seed uint64, backend string) (*core.Pipeline, error) {
	mac := &filterset.MACFilter{Name: "empty"}
	route := &filterset.RouteFilter{Name: "empty"}
	if macName != "" {
		m, err := filterset.GenerateMAC(macName, seed)
		if err != nil {
			return nil, err
		}
		mac = m
	}
	if rtName != "" {
		r, err := filterset.GenerateRoute(rtName, seed)
		if err != nil {
			return nil, err
		}
		route = r
	}
	return core.BuildPrototypeWith(mac, route, backend)
}
