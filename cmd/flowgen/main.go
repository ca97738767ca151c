// Command flowgen synthesises filter sets calibrated to the paper's
// Tables III and IV (MAC learning, routing), ClassBench-style 5-tuple
// sets (ACL), ARP responder sets, or BGP-shaped destination-prefix sets
// (LPM). A rule set is written as a flowtext file of add commands, the
// entries the in-process builders insert: for the two-table applications,
// the first-table entries (one per VLAN or ingress port) and then one
// second-table entry per rule, cookied with its VLAN or port, at the
// prototype's tables (MAC 0/1, routing 2/3); for the others, one table-0
// entry per rule. `ofctl flow-mods -file` loads it. flowgen can also emit
// packet traces against a generated filter — uniform or Zipf-skewed — and
// flow-mod churn workloads (the same first-table entries, then a random
// add / modify / delete stream over the per-rule entries) that ofctl
// flow-mods replays against a live switch in batched transactions.
//
// Usage:
//
//	flowgen -app mac -name gozb > gozb_mac.txt
//	flowgen -app route -name coza -o coza_route.txt
//	flowgen -app acl -name acl1 -n 1000 -o acl1.txt
//	flowgen -app lpm -name feed -n 1000000 -o feed_lpm.txt
//	flowgen -app arp -name arp1 -n 500 -o arp1.txt
//	flowgen -app mac -all -o filters/        # all 16 filters
//	flowgen -app mac -name gozb -trace 100000 -zipf 1.1 -o gozb_trace.txt
//	flowgen -app route -name coza -trace 100000 -zipf-subnets 1.1 -o coza_subnets.txt
//	flowgen -app mac -name gozb -churn 10000 -o gozb_churn.txt
//	flowgen -app acl -name acl1 -churn 10000 -backend tss -o tss_churn.txt
//	flowgen -app lpm -name feed -churn 10000 -backend dir24 -o dir24_churn.txt
//	flowgen -app mac -name gozb -churn 10000 -budget 4000000 -o pressure_churn.txt
//
// With -backend, churn workloads open with a table-options preamble
// pinning every touched table to the named lookup backend, so `ofctl
// flow-mods` can verify the live switch runs the scheme the workload was
// generated to measure. A pin the named backend can never serve — dir24
// on anything but the lpm app's single-prefix-field table — fails here,
// at generation time, rather than on every later replay. -budget
// likewise pins the per-table memory budget (in modelled bits) an
// overload workload expects the switch to enforce — replaying a
// pressure workload against an unbudgeted switch measures nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/flowtext"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
	"ofmtl/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "flowgen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		app  = flag.String("app", "mac", "application: mac | route | acl | arp | lpm")
		name = flag.String("name", "bbra", "filter name (Tables III/IV names for mac/route)")
		n    = flag.Int("n", 1000, "rule count (acl/arp/lpm only)")
		seed = flag.Uint64("seed", filterset.DefaultSeed, "generation seed")
		out  = flag.String("o", "", "output file (default stdout); with -all, output directory")
		all  = flag.Bool("all", false, "generate all 16 filters (mac/route only)")

		trace       = flag.Int("trace", 0, "emit an N-packet trace against the generated filter instead of the filter itself")
		flows       = flag.Int("flows", 1024, "distinct flows in the trace population (with -trace)")
		hit         = flag.Float64("hit", 0.9, "fraction of trace flows that match installed rules (with -trace)")
		zipf        = flag.Float64("zipf", 0, "Zipf skew of flow popularity; 0 = uniform, 1.0-1.3 = measured traffic (with -trace)")
		zipfSubnets = flag.Float64("zipf-subnets", 0, "Zipf skew of *subnet* popularity with every packet a new flow; route app only (with -trace)")

		churn   = flag.Int("churn", 0, "emit an N-command flow-mod churn workload against the generated filter")
		backend = flag.String("backend", "", "pin touched tables to this lookup backend via a table-options preamble (with -churn)")
		budget  = flag.Uint64("budget", 0, "pin touched tables to this memory budget in modelled bits via a table-options preamble (with -churn)")
		idle    = flag.Uint("idle", 0, "stamp this idle timeout in seconds on churn add commands (0 = no timeout; with -churn)")
		hard    = flag.Uint("hard", 0, "stamp this hard timeout in seconds on churn add commands (0 = no timeout; with -churn)")
	)
	flag.Parse()

	if *backend != "" {
		if *churn <= 0 {
			return fmt.Errorf("-backend requires -churn (table-options pin churn workloads)")
		}
		if !core.ValidBackend(*backend) {
			// Fail at generation time: a workload pinned to a kind no
			// switch can run would fail every later replay.
			return fmt.Errorf("unknown backend %q (want %v)", *backend, core.BackendKinds())
		}
	}
	if *budget > 0 && *churn <= 0 {
		return fmt.Errorf("-budget requires -churn (table-options pin churn workloads)")
	}
	if (*idle > 0 || *hard > 0) && *churn <= 0 {
		return fmt.Errorf("-idle/-hard require -churn (timeouts are stamped on churn add commands)")
	}
	if *idle > 0xFFFF || *hard > 0xFFFF {
		return fmt.Errorf("-idle/-hard must fit 16 bits of seconds (max 65535)")
	}
	if *churn > 0 {
		if *all || *trace > 0 {
			return fmt.Errorf("-churn is mutually exclusive with -all and -trace")
		}
		gen := func(w io.Writer) error {
			return generateChurn(w, *app, *name, *n, *churn, *seed, *backend, *budget, uint16(*idle), uint16(*hard))
		}
		if *out == "" {
			return gen(os.Stdout)
		}
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		defer func() { _ = f.Close() }()
		return gen(f)
	}

	if *zipfSubnets > 0 {
		if *trace <= 0 {
			return fmt.Errorf("-zipf-subnets requires -trace")
		}
		if *zipf > 0 {
			return fmt.Errorf("-zipf-subnets is mutually exclusive with -zipf")
		}
		if *app != "route" {
			return fmt.Errorf("-zipf-subnets requires -app route, got %q", *app)
		}
	}
	if *trace > 0 {
		if *all {
			return fmt.Errorf("-trace is mutually exclusive with -all")
		}
		gen := func(w io.Writer) error {
			if *zipfSubnets > 0 {
				return generateSubnetZipfTrace(w, *name, *trace, *zipfSubnets, *seed)
			}
			return generateTrace(w, *app, *name, *n, *trace, *flows, *hit, *zipf, *seed)
		}
		if *out == "" {
			return gen(os.Stdout)
		}
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		defer func() { _ = f.Close() }()
		return gen(f)
	}

	if *all {
		if *out == "" {
			return fmt.Errorf("-all requires -o <dir>")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		for _, fn := range filterset.FilterNames {
			path := filepath.Join(*out, fmt.Sprintf("%s_%s.txt", fn, *app))
			if err := writeTo(path, *app, fn, *n, *seed); err != nil {
				return err
			}
		}
		return nil
	}
	if *out == "" {
		return generate(os.Stdout, *app, *name, *n, *seed)
	}
	return writeTo(*out, *app, *name, *n, *seed)
}

func writeTo(path, app, name string, n int, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	return generate(f, app, name, n, seed)
}

// generate writes the named filter as a flowtext file of add commands:
// ruleCommands' first-table entries, then its per-rule entries.
func generate(w io.Writer, app, name string, n int, seed uint64) error {
	pre, leaf, err := ruleCommands(app, name, n, seed)
	if err != nil {
		return err
	}
	return flowtext.Write(w, append(pre, leaf...))
}

// generateTrace emits an n-packet trace against the named filter. With
// skew 0 every packet is drawn independently (the uniform regime); a
// positive skew resamples a population of `flows` distinct flows with
// Zipf-distributed popularity, the regime exercising the pipeline's
// microflow cache.
func generateTrace(w io.Writer, app, name string, rules, n, flows int, hit, skew float64, seed uint64) error {
	if flows < 1 {
		flows = 1
	}
	population := n
	if skew > 0 {
		population = flows
	}
	var hs []openflow.Header
	switch app {
	case "mac":
		f, err := filterset.GenerateMAC(name, seed)
		if err != nil {
			return err
		}
		hs = traffic.MACTrace(f, population, hit, seed)
	case "route":
		f, err := filterset.GenerateRoute(name, seed)
		if err != nil {
			return err
		}
		hs = traffic.RouteTrace(f, population, hit, seed)
	case "acl":
		hs = traffic.ACLTrace(filterset.GenerateACL(name, rules, seed), population, hit, seed)
	case "lpm":
		hs = traffic.LPMTrace(filterset.GenerateLPM(name, rules, seed), population, hit, seed)
	default:
		return fmt.Errorf("unknown trace application %q (want mac | route | acl | lpm)", app)
	}
	if skew > 0 {
		hs = traffic.ZipfMix(hs, n, skew, seed)
	}
	return traffic.WriteTrace(w, hs)
}

// generateSubnetZipfTrace emits an n-packet trace where installed
// routing prefixes are Zipf-popular but every packet is a brand-new flow
// (fresh host bits and source address per packet). The regime defeats
// exact-match flow caching and exercises the megaflow wildcard tier:
// after one traced walk per subnet, every further packet in that subnet
// is a masked cache hit.
func generateSubnetZipfTrace(w io.Writer, name string, n int, skew float64, seed uint64) error {
	f, err := filterset.GenerateRoute(name, seed)
	if err != nil {
		return err
	}
	return traffic.WriteTrace(w, traffic.SubnetZipf(f, n, skew, seed))
}

// generateChurn emits an n-command flow-mod workload against the named
// filter in the flowtext format: a preamble installing the application's
// first-table entries, then a randomized add / modify / delete mix over
// the per-rule entries — the control-plane regime the transactional API
// (one snapshot publish per batch) is built for. The same seed always
// yields the same workload, so churn benchmarks are reproducible. A
// non-empty backend pins every table the workload touches through a
// table-options preamble; a non-zero budget pins the per-table memory
// budget the same way. Non-zero idle/hard timeouts are stamped on every
// leaf add command, turning the workload into expiry-driven churn: the
// switch's sweeper, not only the controller's deletes, tears flows down.
func generateChurn(w io.Writer, app, name string, rules, n int, seed uint64, backend string, budget uint64, idle, hard uint16) error {
	if backend != "" {
		// A pin the backend can never serve fails here, not on every
		// replay: dir24 only accepts a single-prefix-field table shape,
		// which of the churn apps only lpm has.
		for _, fields := range core.AppTables(apps[app]) {
			if !core.BackendSupportsFields(backend, fields) {
				return fmt.Errorf("backend %q cannot serve the %s workload's table shape %v (dir24 requires a single ipv4 longest-prefix-match field; use -app lpm)", backend, app, fields)
			}
		}
	}
	pre, leaf, err := ruleCommands(app, name, rules, seed)
	if err != nil {
		return err
	}
	rng := xrand.New(seed ^ 0xC0FFEE)
	cmds := make([]ofproto.FlowMod, 0, n)
	cmds = append(cmds, pre...)
	if len(cmds) > n {
		cmds = cmds[:n]
	}
	live := make([]bool, len(leaf))
	var liveIdx []int
	for len(cmds) < n {
		r := rng.Float64()
		switch {
		case len(liveIdx) == 0 || r < 0.5:
			// Add a random rule; re-adding a live one exercises the
			// replace path.
			i := rng.Intn(len(leaf))
			add := leaf[i]
			add.Entry.IdleTimeout = idle
			add.Entry.HardTimeout = hard
			cmds = append(cmds, add)
			if !live[i] {
				live[i] = true
				liveIdx = append(liveIdx, i)
			}
		case r < 0.75:
			// Modify a live rule's output port (non-strict match on its
			// match set).
			i := liveIdx[rng.Intn(len(liveIdx))]
			mod := leaf[i]
			mod.Op = ofproto.FlowModify
			mod.Entry.Priority = 0
			mod.Entry.Instructions = []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(1 + rng.Intn(64)))),
			}
			cmds = append(cmds, mod)
		default:
			// Strict-delete a live rule.
			k := rng.Intn(len(liveIdx))
			i := liveIdx[k]
			del := leaf[i]
			del.Op = ofproto.FlowDeleteStrict
			del.Entry.Instructions = nil
			cmds = append(cmds, del)
			live[i] = false
			liveIdx[k] = liveIdx[len(liveIdx)-1]
			liveIdx = liveIdx[:len(liveIdx)-1]
		}
	}
	out := &flowtext.File{Commands: cmds}
	if backend != "" || budget > 0 {
		seen := map[openflow.TableID]bool{}
		for i := range cmds {
			if id := cmds[i].Table; !seen[id] {
				seen[id] = true
				out.TableOptions = append(out.TableOptions, flowtext.TableOption{Table: id, Backend: backend, Budget: budget})
			}
		}
		sort.Slice(out.TableOptions, func(i, j int) bool {
			return out.TableOptions[i].Table < out.TableOptions[j].Table
		})
	}
	return flowtext.WriteFile(w, out)
}

// apps maps the -app names to the applications.
var apps = map[string]filterset.App{
	"mac": filterset.MACLearning, "route": filterset.Routing,
	"acl": filterset.ACL, "arp": filterset.ARP, "lpm": filterset.LPM,
}

// ruleCommands renders the named filter as flow-mod add commands. For
// the two-table applications, pre holds the first-table entries (one per
// VLAN or ingress port) and leaf one second-table entry per rule, whose
// cookie is its VLAN or port; the entries are core's renderings at the
// prototype's tables. For the single-table applications pre is empty and
// leaf holds one table-0 entry per rule.
func ruleCommands(app, name string, rules int, seed uint64) (pre, leaf []ofproto.FlowMod, err error) {
	var single []openflow.FlowEntry
	switch app {
	case "mac":
		f, err := filterset.GenerateMAC(name, seed)
		if err != nil {
			return nil, nil, err
		}
		seen := map[uint16]bool{}
		for _, r := range f.Rules {
			pre, leaf = appendPair(pre, leaf, core.MACEntries(r, core.MACBase), core.MACBase, !seen[r.VLAN], uint64(r.VLAN))
			seen[r.VLAN] = true
		}
		return pre, leaf, nil
	case "route":
		f, err := filterset.GenerateRoute(name, seed)
		if err != nil {
			return nil, nil, err
		}
		seen := map[uint32]bool{}
		for _, r := range f.Rules {
			pre, leaf = appendPair(pre, leaf, core.RouteEntries(r, core.RouteBase), core.RouteBase, !seen[r.InPort], uint64(r.InPort))
			seen[r.InPort] = true
		}
		return pre, leaf, nil
	case "acl":
		single = filterset.GenerateACL(name, rules, seed).FlowEntries()
	case "arp":
		single = filterset.GenerateARP(name, rules, seed).FlowEntries()
	case "lpm":
		single = filterset.GenerateLPM(name, rules, seed).FlowEntries()
	default:
		return nil, nil, fmt.Errorf("unknown application %q (want mac | route | acl | arp | lpm)", app)
	}
	for _, e := range single {
		leaf = append(leaf, ofproto.FlowMod{Op: ofproto.FlowAdd, Table: 0, Entry: e})
	}
	return nil, leaf, nil
}

// appendPair appends a two-table rule's entries as adds: the first to pre
// when first is set, the second, with the cookie, to leaf.
func appendPair(pre, leaf []ofproto.FlowMod, es [2]openflow.FlowEntry, base openflow.TableID, first bool, cookie uint64) ([]ofproto.FlowMod, []ofproto.FlowMod) {
	if first {
		pre = append(pre, ofproto.FlowMod{Op: ofproto.FlowAdd, Table: base, Entry: es[0]})
	}
	es[1].Cookie = cookie
	return pre, append(leaf, ofproto.FlowMod{Op: ofproto.FlowAdd, Table: base + 1, Entry: es[1]})
}
