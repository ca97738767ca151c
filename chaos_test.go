//go:build failpoint

package ofmtl_test

// Chaos harness: the fault-injection acceptance test for the robustness
// layer. Four controller workers churn idempotent flow-mods over
// disjoint VLAN spaces through ReconnClients, a packet prober exercises
// the data plane, and a poller watches the switch's memory accounting —
// all while a TCP proxy kills every live connection on a timer and the
// failpoint sites inject errors into commits, cache installs, accepts
// and raw connection reads/writes.
//
// Invariants asserted, under -race:
//
//   - the pipeline's accounted memory never exceeds the armed budget, at
//     any poll, in-process or over the wire (no torn or leaked
//     accounting across rejected commits and severed connections);
//   - killed connections recover through the clients' jittered backoff,
//     and after a final reconcile pass the switch holds exactly the
//     intended rule population (no committed state lost);
//   - the server survives it all: no panics, no deadlocks, a clean
//     drain at the end.
//
// Build-gated behind the failpoint tag; the CI chaos job runs it with
// `-tags failpoint -race`, with a longer -chaos-soak than the default.
import (
	"context"
	"errors"
	"flag"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/cow"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

var chaosSoak = flag.Duration("chaos-soak", 2*time.Second, "duration of the chaos churn phase")

// chaosProxy is a loopback TCP proxy whose pipes can all be severed at
// once, simulating network failure between controllers and the switch.
type chaosProxy struct {
	l        net.Listener
	backend  string
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	kills    atomic.Uint64
	done     chan struct{}
	stopOnce sync.Once
}

func startChaosProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{l: l, backend: backend, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	go p.serve()
	return p
}

func (p *chaosProxy) addr() string { return p.l.Addr().String() }

func (p *chaosProxy) serve() {
	for {
		client, err := p.l.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			_ = client.Close()
			continue
		}
		p.mu.Lock()
		select {
		case <-p.done:
			p.mu.Unlock()
			_ = client.Close()
			_ = server.Close()
			return
		default:
		}
		p.conns[client] = struct{}{}
		p.conns[server] = struct{}{}
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			_, _ = io.Copy(dst, src)
			_ = dst.Close()
			_ = src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		go pipe(client, server)
		go pipe(server, client)
	}
}

// killAll severs every live pipe; clients see a broken connection and
// must redial.
func (p *chaosProxy) killAll() {
	p.mu.Lock()
	n := len(p.conns)
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	if n > 0 {
		p.kills.Add(1)
	}
}

func (p *chaosProxy) stop() {
	p.stopOnce.Do(func() {
		close(p.done)
		_ = p.l.Close()
		p.killAll()
	})
}

// chaosMAC derives the deterministic per-VLAN host address of the
// intended population.
func chaosMAC(vlan uint16) uint64 { return 0x0050_5600_0000 | uint64(vlan)<<8 | 0x01 }

// chaosAddPair renders the two-table add for one (vlan, mac) host — the
// same decomposition ofctl add-mac uses. Re-adding an identical pair is
// idempotent, so it is safe to replay across reconnects.
func chaosAddPair(vlan uint16, mac uint64) []ofproto.FlowMod {
	return []ofproto.FlowMod{
		{Op: ofproto.FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, uint64(vlan))},
			Instructions: []openflow.Instruction{
				openflow.WriteMetadata(uint64(vlan), ^uint64(0)),
				openflow.GotoTable(1),
			},
		}},
		{Op: ofproto.FlowAdd, Table: 1, Entry: openflow.FlowEntry{
			Priority: 1,
			Cookie:   uint64(vlan),
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, uint64(vlan)),
				openflow.Exact(openflow.FieldEthDst, mac),
			},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(3))},
		}},
	}
}

// chaosDelete renders the strict delete of one host's leaf entry.
// Deleting an absent entry is a committed no-op, so it too replays
// safely.
func chaosDelete(vlan uint16, mac uint64) []ofproto.FlowMod {
	return []ofproto.FlowMod{{Op: ofproto.FlowDeleteStrict, Table: 1, Entry: openflow.FlowEntry{
		Priority: 1,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, uint64(vlan)),
			openflow.Exact(openflow.FieldEthDst, mac),
		},
	}}}
}

func chaosReconn(addr string) *ofproto.ReconnClient {
	rc := ofproto.NewReconnClient(addr, ofproto.DialOptions{
		DialTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	})
	// Chaos-heavy settings: many cheap retries, so a request survives a
	// pipe kill plus a few injected accept/read failures in a row.
	rc.MaxAttempts = 64
	rc.BackoffMin = time.Millisecond
	rc.BackoffMax = 50 * time.Millisecond
	return rc
}

// TestChaosBudgetNeverExceeded is the headline chaos run; see the file
// comment for the invariants.
func TestChaosBudgetNeverExceeded(t *testing.T) {
	cow.SealForTest(t)
	const (
		workers      = 4
		vlansPerWkr  = 12
		baseVLAN     = 100
		killInterval = 100 * time.Millisecond
	)

	pipeline, err := core.BuildPrototype(
		&filterset.MACFilter{Name: "empty"},
		&filterset.RouteFilter{Name: "empty"},
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServerWithOptions(pipeline, ofproto.ServerOptions{
		ReadTimeout:  time.Second,
		WriteTimeout: time.Second,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()

	// Provision the full intended population once, so its capacity is in
	// the accounting high-water mark, then size the budget just above
	// it. During chaos the same entries churn in and out — always within
	// provisioned capacity — while occasional rogue adds of brand-new
	// hosts push against the slack and get rejected TABLE_FULL.
	seed, err := ofproto.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var population []ofproto.FlowMod
	for w := 0; w < workers; w++ {
		for v := 0; v < vlansPerWkr; v++ {
			vlan := uint16(baseVLAN + w*vlansPerWkr + v)
			population = append(population, chaosAddPair(vlan, chaosMAC(vlan))...)
		}
	}
	if _, err := seed.SendFlowMods(population); err != nil {
		t.Fatalf("provisioning population: %v", err)
	}
	seedStats, err := seed.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ms := seedStats.Memory
	budget := ms.TotalBits + ms.TotalBits/20 // 5% slack for rogue adds
	pipeline.SetMemoryBudget(budget)
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("population provisioned: %d bits accounted, budget %d bits", ms.TotalBits, budget)

	proxy := startChaosProxy(t, l.Addr().String())
	defer proxy.stop()

	// Arm the failpoints: per-call probabilities, so every layer fails a
	// few percent of the time under load.
	for site, spec := range map[string]string{
		failpoint.SiteCommit:       "error:0.03",
		failpoint.SiteCacheInstall: "error:0.25",
		failpoint.SiteAccept:       "error:0.05",
		failpoint.SiteConnRead:     "error:0.005",
		failpoint.SiteConnWrite:    "error:0.005",
	} {
		if err := failpoint.Arm(site, spec); err != nil {
			t.Fatal(err)
		}
	}
	defer failpoint.DisarmAll()

	ctx, cancel := context.WithTimeout(context.Background(), *chaosSoak)
	defer cancel()

	var wg sync.WaitGroup

	// The killer: sever every proxied pipe on a timer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(killInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				proxy.killAll()
			}
		}
	}()

	// The poller: the budget invariant, checked in-process on a tight
	// loop and over the wire (the ofctl stats path) on a slower one.
	var polls, wirePolls atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := chaosReconn(l.Addr().String()) // direct: the poller must outlive proxy kills
		defer func() { _ = rc.Close() }()
		lastWire := time.Now()
		for ctx.Err() == nil {
			if used := pipeline.MemoryStats().TotalBits; used > budget {
				t.Errorf("budget exceeded in-process: %d bits used of %d", used, budget)
				return
			}
			polls.Add(1)
			if time.Since(lastWire) >= 50*time.Millisecond {
				lastWire = time.Now()
				wst, err := rc.Stats(ctx)
				if err == nil {
					wms := wst.Memory
					if wms.TotalBits > budget {
						t.Errorf("budget exceeded over the wire: %d bits used of %d", wms.TotalBits, budget)
						return
					}
					if wms.BudgetBits != budget {
						t.Errorf("wire budget = %d, want %d", wms.BudgetBits, budget)
						return
					}
					wirePolls.Add(1)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The packet prober: lookups through both cache tiers while their
	// installs are failing 25% of the time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := chaosReconn(proxy.addr())
		defer func() { _ = rc.Close() }()
		rng := rand.New(rand.NewPCG(99, 99))
		for ctx.Err() == nil {
			vlan := uint16(baseVLAN + rng.IntN(workers*vlansPerWkr))
			h := openflow.Header{VLANID: vlan, EthDst: chaosMAC(vlan)}
			_, _ = rc.SendPacket(ctx, &h) // transport errors expected; torn state shows up under -race
		}
	}()

	// The churn workers: disjoint VLAN spaces, idempotent add/delete
	// toggles, occasional rogue adds probing the budget slack.
	var (
		totalOps   atomic.Uint64
		rejections atomic.Uint64
		tableFulls atomic.Uint64
		rogueMu    sync.Mutex
		rogueTried = make(map[uint64]uint16) // mac -> vlan, every rogue ever attempted
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc := chaosReconn(proxy.addr())
			defer func() { _ = rc.Close() }()
			rng := rand.New(rand.NewPCG(uint64(w), uint64(w)+1))
			installed := make([]bool, vlansPerWkr)
			for i := range installed {
				installed[i] = true // the seeding pass installed everything
			}
			for ctx.Err() == nil {
				v := rng.IntN(vlansPerWkr)
				vlan := uint16(baseVLAN + w*vlansPerWkr + v)
				var fms []ofproto.FlowMod
				var rogueMAC uint64
				rogue := rng.Float64() < 0.1
				switch {
				case rogue:
					// A brand-new host: needs fresh bits, so it either fits
					// the slack or is rejected TABLE_FULL.
					rogueMAC = 0x0050_5700_0000 | uint64(vlan)<<8 | uint64(rng.IntN(200)+2)
					rogueMu.Lock()
					rogueTried[rogueMAC] = vlan
					rogueMu.Unlock()
					fms = chaosAddPair(vlan, rogueMAC)[1:] // table 0 entry already exists
				case installed[v]:
					fms = chaosDelete(vlan, chaosMAC(vlan))
				default:
					fms = chaosAddPair(vlan, chaosMAC(vlan))
				}
				_, err := rc.SendFlowMods(ctx, fms)
				switch {
				case err == nil:
					if rogue {
						// Evict the rogue straight away. A committed rogue is a
						// configuration the seeding pass never provisioned, so
						// while it sits in the table other workers' re-adds may
						// need fresh bits; keeping the window short keeps the
						// churn mix healthy. Best-effort — the reconcile sweep
						// repairs any rogue this delete fails to land.
						_, _ = rc.SendFlowMods(ctx, chaosDelete(vlan, rogueMAC))
					} else {
						installed[v] = !installed[v]
					}
				case ofproto.IsTableFull(err):
					if n := tableFulls.Add(1); n <= 5 {
						t.Logf("TABLE_FULL #%d (rogue=%v installed=%v): %v", n, rogue, installed[v], err)
					}
				default:
					var se *ofproto.SwitchError
					if errors.As(err, &se) {
						rejections.Add(1) // injected commit failure: rolled back, retry later
					}
					// Transport failure past MaxAttempts: state unknown;
					// the reconcile pass below repairs it.
				}
				totalOps.Add(1)
			}
		}(w)
	}

	wg.Wait()
	commitHits := failpoint.Hits(failpoint.SiteCommit) // read before DisarmAll discards the counters
	failpoint.DisarmAll()
	proxy.stop()

	t.Logf("chaos: %d ops, %d injected rejections, %d TABLE_FULL, %d pipe-kill sweeps, %d commit-site hits, %d/%d polls (wire/in-process)",
		totalOps.Load(), rejections.Load(), tableFulls.Load(), proxy.kills.Load(), commitHits, wirePolls.Load(), polls.Load())
	if totalOps.Load() == 0 {
		t.Fatal("no churn operations completed; the harness never ran")
	}
	if polls.Load() == 0 {
		t.Fatal("budget poller never ran")
	}
	if proxy.kills.Load() == 0 {
		t.Error("proxy never killed a live pipe; the reconnect path went unexercised")
	}

	// Reconcile with a clean wire: delete everything ever touched, then
	// install exactly the intended population. At-least-once replay and
	// injected rejections may have left any individual toggle in either
	// state, but both command forms are idempotent, so this pass must
	// converge the switch to the intent precisely.
	cl, err := ofproto.Dial(l.Addr().String())
	if err != nil {
		t.Fatalf("post-chaos dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	var sweep []ofproto.FlowMod
	rogueMu.Lock()
	for mac, vlan := range rogueTried {
		sweep = append(sweep, chaosDelete(vlan, mac)...)
	}
	rogueMu.Unlock()
	for w := 0; w < workers; w++ {
		for v := 0; v < vlansPerWkr; v++ {
			vlan := uint16(baseVLAN + w*vlansPerWkr + v)
			sweep = append(sweep, chaosDelete(vlan, chaosMAC(vlan))...)
		}
	}
	if _, err := cl.SendFlowMods(sweep); err != nil {
		t.Fatalf("reconcile sweep: %v", err)
	}
	if _, err := cl.SendFlowMods(population); err != nil {
		t.Fatalf("reconcile install: %v", err)
	}
	if err := cl.Barrier(); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantHosts := workers * vlansPerWkr
	if st.Tables[0].Rules != wantHosts || st.Tables[1].Rules != wantHosts {
		t.Errorf("after reconcile: table0=%d table1=%d rules, want %d each",
			st.Tables[0].Rules, st.Tables[1].Rules, wantHosts)
	}
	final := st.Memory
	if final.TotalBits > budget {
		t.Errorf("final accounting %d bits exceeds budget %d", final.TotalBits, budget)
	}
	if inproc := pipeline.MemoryStats().TotalBits; inproc != final.TotalBits {
		t.Errorf("wire accounting %d bits != in-process %d", final.TotalBits, inproc)
	}
	if sc := srv.Counters(); sc.Panics != 0 {
		t.Errorf("server recovered %d handler panics; chaos should inject errors, not panics", sc.Panics)
	}
}
