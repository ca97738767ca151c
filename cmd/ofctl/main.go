// Command ofctl is the controller-side CLI for switchd: it installs and
// removes flow entries (one rule, or a flow-mod command file such as a
// flowgen rule set or churn workload), scrapes flow counters, modifies
// groups, injects packets and reads switch statistics over the control
// protocol. Every write is a flow-mod transaction: add-mac and add-route
// commit their rule's two-table pair (the entries core.MACEntries and
// core.RouteEntries render, at the prototype's tables) as one, so a
// rejected entry leaves neither installed.
//
// Usage:
//
//	ofctl -addr 127.0.0.1:6653 stats
//	ofctl stats -watch 2s
//	ofctl add-mac -vlan 10 -mac 00:11:22:33:44:55 -port 3
//	ofctl del-mac -vlan 10 -mac 00:11:22:33:44:55
//	ofctl add-route -inport 2 -prefix 10.0.0.0/8 -nexthop 7
//	ofctl del-route -inport 2 -prefix 10.0.0.0/8
//	ofctl flow-mods -file gozb_mac.txt
//	ofctl flow-mods -file churn.txt -batch 256
//	ofctl flows -table 1 -cookie 10
//	ofctl group-mod -op add -id 1 -type all -bucket out=1 -bucket out=2
//	ofctl packet -vlan 10 -mac 00:11:22:33:44:55
//	ofctl packet -inport 2 -dst 10.1.2.3
//
// flow-mods replays a flow-mod command file (the flowgen/flowtext format:
// add / modify / delete / delete-strict lines; a flowgen rule set is a
// file of adds) in batched transactions:
// each batch of -batch commands is applied by the switch atomically with
// one snapshot publish, and a barrier closes the session. A table-options
// preamble in the file (flowgen -backend emits one) pins the lookup
// backend each table is expected to run; flow-mods verifies the pins
// against the switch's stats report before replaying, so a workload
// generated for one scheme is not measured against another
// (-ignore-table-options skips the check).
//
// stats prints the switch report, one message carrying every section
// the pipeline keeps: per table the match fields, lookup backend, rule
// count and modelled memory (search / index / action bits) against its
// budget; the process total, M20K blocks and budget; both cache tiers
// (hits, misses, bypassed samples, admission state, megaflow masks);
// the pressure controller; transaction and lifecycle counters; and the
// backend advisor's per-table signals, candidate scores and migration
// history. -watch re-polls on an interval.
//
// Every request runs under -timeout (dial, reads, writes), so a dead or
// unreachable switch fails fast with a clear message and a non-zero
// exit instead of hanging. A switch over its memory budget rejects
// flow-mods with an OpenFlow-style TABLE_FULL error; ofctl surfaces it
// with a hint to free entries or raise switchd -membudget.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/flowtext"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "ofctl: %v\n", err)
		if ofproto.IsTableFull(err) {
			fmt.Fprintln(os.Stderr, "ofctl: the switch is at its memory budget (TABLE_FULL); delete entries or raise switchd -membudget")
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("ofctl", flag.ContinueOnError)
	addr := global.String("addr", "127.0.0.1:6653", "switchd control address")
	timeout := global.Duration("timeout", 10*time.Second, "per-operation deadline for dialing and each request (0 = wait forever)")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		names := make([]string, len(subcommands))
		for i, sc := range subcommands {
			names[i] = sc.name
		}
		return fmt.Errorf("usage: ofctl [-addr host:port] [-timeout 10s] <%s> [flags]", strings.Join(names, "|"))
	}
	sc := find(subcommands, func(sc *subcommand) bool { return sc.name == rest[0] })
	if sc == nil {
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}

	client, err := dialSwitch(*addr, *timeout)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	return sc.run(client, rest[1:])
}

// subcommand is one verb of the CLI and its handler.
type subcommand struct {
	name string
	run  func(*ofproto.Client, []string) error
}

// subcommands lists every verb, in the order the usage line gives them.
var subcommands = []subcommand{
	{"stats", doStats},
	{"add-mac", doAddMAC},
	{"del-mac", doDelMAC},
	{"add-route", doAddRoute},
	{"del-route", doDelRoute},
	{"flow-mods", doFlowMods},
	{"flows", doFlows},
	{"group-mod", doGroupMod},
	{"packet", doPacket},
}

// dialSwitch is the one dial helper every subcommand goes through: the
// same -timeout bounds the TCP connect, the hello exchange, and each
// request's reads and writes, so every subcommand fails fast (with the
// same message) against a dead switch instead of hanging.
func dialSwitch(addr string, timeout time.Duration) (*ofproto.Client, error) {
	client, err := ofproto.DialContext(context.Background(), addr, ofproto.DialOptions{
		DialTimeout:  timeout,
		ReadTimeout:  timeout,
		WriteTimeout: timeout,
	})
	if err != nil {
		return nil, fmt.Errorf("cannot reach switch at %s: %w (is switchd running?)", addr, err)
	}
	return client, nil
}

// doStats prints the switch report once, or on every -watch tick with
// a blank line between reports.
func doStats(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	watch := fs.Duration("watch", 0, "re-poll and re-print the report on this interval (0 = print once)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ticker *time.Ticker
	if *watch > 0 {
		ticker = time.NewTicker(*watch)
		defer ticker.Stop()
	}
	for first := true; ; first = false {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		if !first {
			fmt.Println()
		}
		if err := st.WriteText(os.Stdout); err != nil {
			return err
		}
		if ticker == nil {
			return nil
		}
		<-ticker.C
	}
}

func parseMAC(s string) (uint64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return 0, fmt.Errorf("malformed MAC %q", s)
	}
	var v uint64
	for _, p := range parts {
		if len(p) != 2 {
			return 0, fmt.Errorf("malformed MAC octet %q", p)
		}
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return 0, fmt.Errorf("malformed MAC octet %q", p)
		}
		v = v<<8 | b
	}
	return v, nil
}

func parseCIDR(s string) (uint32, int, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("missing /len in %q", s)
	}
	plen, err := strconv.Atoi(s[slash+1:])
	if err != nil || plen < 0 || plen > 32 {
		return 0, 0, fmt.Errorf("bad prefix length in %q", s)
	}
	quads := strings.Split(s[:slash], ".")
	if len(quads) != 4 {
		return 0, 0, fmt.Errorf("bad IPv4 in %q", s)
	}
	var v uint32
	for _, q := range quads {
		b, err := strconv.ParseUint(q, 10, 8)
		if err != nil {
			return 0, 0, fmt.Errorf("bad IPv4 octet %q", q)
		}
		v = v<<8 | uint32(b)
	}
	return v, plen, nil
}

func parseIPv4(s string) (uint32, error) {
	v, plen, err := parseCIDR(s + "/32")
	if err != nil || plen != 32 {
		return 0, fmt.Errorf("malformed IPv4 %q", s)
	}
	return v, nil
}

// defaultBatch is the commands per transaction of flow-mods (its -batch
// default).
const defaultBatch = 256

// fits rejects a flag value wider than the rule field it fills, which a
// conversion would silently truncate to another rule's key.
func fits(name string, v uint, max uint64) error {
	if uint64(v) > max {
		return fmt.Errorf("-%s must be at most %d, got %d", name, max, v)
	}
	return nil
}

// adds renders a rule's two entries as adds to tables base and base+1,
// committed together.
func adds(es [2]openflow.FlowEntry, base openflow.TableID) []ofproto.FlowMod {
	return []ofproto.FlowMod{
		{Op: ofproto.FlowAdd, Table: base, Entry: es[0]},
		{Op: ofproto.FlowAdd, Table: base + 1, Entry: es[1]},
	}
}

// deleteStrict renders the strict delete of a rule's second entry at
// table base+1. The first entry is shared by every rule with the same
// VLAN or ingress port, so it stays installed.
func deleteStrict(es [2]openflow.FlowEntry, base openflow.TableID) []ofproto.FlowMod {
	e := es[1]
	e.Instructions = nil
	return []ofproto.FlowMod{{Op: ofproto.FlowDeleteStrict, Table: base + 1, Entry: e}}
}

func doAddMAC(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("add-mac", flag.ContinueOnError)
	vlan := fs.Uint("vlan", 1, "VLAN ID")
	mac := fs.String("mac", "", "destination Ethernet (aa:bb:cc:dd:ee:ff)")
	port := fs.Uint("port", 1, "output port")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMAC(*mac)
	if err != nil {
		return err
	}
	if err := fits("vlan", *vlan, 4095); err != nil {
		return err
	}
	r := filterset.MACRule{VLAN: uint16(*vlan), EthDst: m, OutPort: uint32(*port)}
	if _, err := c.SendFlowMods(adds(core.MACEntries(r, core.MACBase), core.MACBase)); err != nil {
		return err
	}
	fmt.Printf("installed vlan=%d mac=%s -> port %d\n", *vlan, *mac, *port)
	return nil
}

// doDelMAC removes the MAC application's second-table entry for one
// (VLAN, MAC) pair via a strict-delete transaction.
func doDelMAC(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("del-mac", flag.ContinueOnError)
	vlan := fs.Uint("vlan", 1, "VLAN ID")
	mac := fs.String("mac", "", "destination Ethernet (aa:bb:cc:dd:ee:ff)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := parseMAC(*mac)
	if err != nil {
		return err
	}
	if err := fits("vlan", *vlan, 4095); err != nil {
		return err
	}
	r := filterset.MACRule{VLAN: uint16(*vlan), EthDst: m}
	reply, err := c.SendFlowMods(deleteStrict(core.MACEntries(r, core.MACBase), core.MACBase))
	if err != nil {
		return err
	}
	if reply.Deleted == 0 {
		return fmt.Errorf("no entry installed for vlan=%d mac=%s", *vlan, *mac)
	}
	fmt.Printf("deleted vlan=%d mac=%s (%d entries)\n", *vlan, *mac, reply.Deleted)
	return nil
}

// doDelRoute removes the routing application's second-table entry for one
// (ingress port, prefix) pair via a strict-delete transaction.
func doDelRoute(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("del-route", flag.ContinueOnError)
	inport := fs.Uint("inport", 1, "ingress port")
	prefix := fs.String("prefix", "0.0.0.0/0", "IPv4 destination prefix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, plen, err := parseCIDR(*prefix)
	if err != nil {
		return err
	}
	if err := fits("inport", *inport, math.MaxUint32); err != nil {
		return err
	}
	r := filterset.RouteRule{InPort: uint32(*inport), Prefix: p, PrefixLen: plen}
	reply, err := c.SendFlowMods(deleteStrict(core.RouteEntries(r, core.RouteBase), core.RouteBase))
	if err != nil {
		return err
	}
	if reply.Deleted == 0 {
		return fmt.Errorf("no route installed for inport=%d %s", *inport, *prefix)
	}
	fmt.Printf("deleted inport=%d %s (%d entries)\n", *inport, *prefix, reply.Deleted)
	return nil
}

// doFlowMods replays a flow-mod command file in batched transactions.
func doFlowMods(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("flow-mods", flag.ContinueOnError)
	file := fs.String("file", "", "flow-mod command file (flowgen/flowtext format)")
	batch := fs.Int("batch", defaultBatch, "commands per transaction")
	ignoreOpts := fs.Bool("ignore-table-options", false, "replay even when the switch's table backends differ from the file's table-options pins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", *batch)
	}
	f, err := os.Open(*file)
	if err != nil {
		return fmt.Errorf("opening command file: %w", err)
	}
	defer func() { _ = f.Close() }()
	parsed, err := flowtext.ReadFile(f)
	if err != nil {
		return err
	}
	fms := parsed.Commands
	if len(parsed.TableOptions) > 0 && !*ignoreOpts {
		if err := checkTableOptions(c, parsed.TableOptions); err != nil {
			return err
		}
	}
	total, txs, err := sendBatches(c, fms, *batch)
	if err != nil {
		return err
	}
	fmt.Printf("committed %d transactions, %d commands: %d added (%d replaced), %d modified, %d deleted\n",
		txs, total.Commands, total.Added, total.Replaced, total.Modified, total.Deleted)
	return nil
}

// sendBatches commits fms in transactions of batch commands each, then
// closes the session with a barrier, so every transaction is fully
// processed before the command returns. It sums the replies.
func sendBatches(c *ofproto.Client, fms []ofproto.FlowMod, batch int) (total ofproto.FlowModBatchReply, txs int, err error) {
	for off := 0; off < len(fms); off += batch {
		reply, err := c.SendFlowMods(fms[off:min(off+batch, len(fms))])
		if err != nil {
			return total, txs, fmt.Errorf("after %d committed transactions: %w", txs, err)
		}
		total.Commands += reply.Commands
		total.Added += reply.Added
		total.Replaced += reply.Replaced
		total.Modified += reply.Modified
		total.Deleted += reply.Deleted
		txs++
	}
	return total, txs, c.Barrier()
}

// checkTableOptions verifies the workload's table-options pins — lookup
// backends and memory budgets — against the live switch, in one stats
// request.
func checkTableOptions(c *ofproto.Client, opts []flowtext.TableOption) error {
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("fetching switch stats: %w", err)
	}
	for _, opt := range opts {
		got := find(st.Memory.Tables, func(t *core.TableMemory) bool { return t.Table == opt.Table })
		if got == nil {
			return fmt.Errorf("table-options: switch has no table %d", opt.Table)
		}
		if opt.Backend == "auto" {
			// An auto pin is satisfied by advisor ownership, not by any
			// particular concrete scheme — the memory section reports
			// whichever backend the advisor currently runs, so check the
			// advisor section's auto flag instead.
			adv := find(st.Advisor.Tables, func(t *core.TableAdvisorStats) bool { return t.Table == opt.Table })
			if adv == nil || !adv.Auto {
				return fmt.Errorf("table-options: table %d runs pinned backend %s, workload pins auto (re-run switchd -backend auto, or pass -ignore-table-options)",
					opt.Table, got.Backend)
			}
			fmt.Printf("table-options: table %d backend=auto confirmed (advisor runs %s)\n", opt.Table, got.Backend)
		} else if opt.Backend != "" {
			// Shape first: a pin the backend can never serve is the root
			// cause, and re-running switchd -backend (the mismatch hint
			// below) would not fix it — the pipeline falls back to a
			// generic scheme for unservable shapes.
			info := find(st.Tables, func(t *core.TableInfo) bool { return t.ID == opt.Table })
			if info != nil && !core.BackendSupportsFields(opt.Backend, info.Fields) {
				return fmt.Errorf("table-options: table %d matches [%s], which backend %s can never serve (dir24 requires exactly one 32-bit longest-prefix-match field, e.g. ipv4-dst); fix the workload's table-options, or pass -ignore-table-options",
					opt.Table, fieldNames(info.Fields), opt.Backend)
			}
			if got.Backend != opt.Backend {
				return fmt.Errorf("table-options: table %d runs backend %s, workload pins %s (re-run switchd -backend %s, or pass -ignore-table-options)",
					opt.Table, got.Backend, opt.Backend, opt.Backend)
			}
			fmt.Printf("table-options: table %d backend=%s confirmed\n", opt.Table, opt.Backend)
		}
		if opt.Budget > 0 {
			if got.BudgetBits != opt.Budget {
				return fmt.Errorf("table-options: table %d enforces a %d-bit budget, workload pins %d (configure the budget in the switchd -pipeline layout, or pass -ignore-table-options)",
					opt.Table, got.BudgetBits, opt.Budget)
			}
			fmt.Printf("table-options: table %d budget=%d bits confirmed\n", opt.Table, opt.Budget)
		}
	}
	return nil
}

// find returns the first element of xs that match accepts, or nil.
func find[T any](xs []T, match func(*T) bool) *T {
	for i := range xs {
		if match(&xs[i]) {
			return &xs[i]
		}
	}
	return nil
}

// fieldNames renders a field list for error messages.
func fieldNames(fs []openflow.FieldID) string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.String()
	}
	return strings.Join(names, ", ")
}

func doAddRoute(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("add-route", flag.ContinueOnError)
	inport := fs.Uint("inport", 1, "ingress port")
	prefix := fs.String("prefix", "0.0.0.0/0", "IPv4 destination prefix")
	nexthop := fs.Uint("nexthop", 1, "next hop port")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, plen, err := parseCIDR(*prefix)
	if err != nil {
		return err
	}
	if err := fits("inport", *inport, math.MaxUint32); err != nil {
		return err
	}
	r := filterset.RouteRule{InPort: uint32(*inport), Prefix: p, PrefixLen: plen, NextHop: uint32(*nexthop)}
	if _, err := c.SendFlowMods(adds(core.RouteEntries(r, core.RouteBase), core.RouteBase)); err != nil {
		return err
	}
	fmt.Printf("installed inport=%d %s -> nexthop %d\n", *inport, *prefix, *nexthop)
	return nil
}

// doFlows scrapes per-flow statistics (cursor-paginated; the switch
// serves each page lock-free) or, with -agg, the aggregate roll-up.
func doFlows(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("flows", flag.ContinueOnError)
	table := fs.Int("table", -1, "table to scrape (-1 = all tables)")
	cookie := fs.String("cookie", "", "cookie filter V[/MASK] (empty = no filter)")
	agg := fs.Bool("agg", false, "print the aggregate packet/byte/flow roll-up instead of per-flow rows")
	page := fs.Uint("page", 0, "rows per request page (0 = switch default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ck, mask uint64
	if *cookie != "" {
		var err error
		if ck, mask, err = flowtext.ParseValMask(*cookie); err != nil {
			return fmt.Errorf("bad -cookie %q: %w", *cookie, err)
		}
		if mask == 0 {
			mask = ^uint64(0)
		}
	}
	t := ofproto.AllTables
	if *table >= 0 {
		if *table > 0xFE {
			return fmt.Errorf("-table must be 0-254 or -1, got %d", *table)
		}
		t = uint8(*table)
	}
	if *agg {
		reply, err := c.AggregateStats(&ofproto.AggregateStatsRequest{Table: t, Cookie: ck, CookieMask: mask})
		if err != nil {
			return err
		}
		fmt.Printf("flows: %d, packets: %d, bytes: %d\n", reply.Flows, reply.Packets, reply.Bytes)
		return nil
	}
	req := ofproto.FlowStatsRequest{Table: t, Max: uint16(*page), Cookie: ck, CookieMask: mask}
	n := 0
	err := c.VisitFlowStats(req, func(row *ofproto.FlowStatsRow) bool {
		n++
		fmt.Printf("table=%d age=%ds idle_age=%ds pkts=%d bytes=%d %s\n",
			row.Table, row.Age, row.IdleAge, row.Packets, row.Bytes, row.Entry.String())
		return true
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d flows\n", n)
	return nil
}

// bucketList collects repeated -bucket flags: each value is one
// bucket's comma-separated action tokens (out=N | out=controller |
// drop), e.g. `-bucket out=1 -bucket out=2,out=3`.
type bucketList [][]openflow.Action

func (b *bucketList) String() string { return fmt.Sprintf("%d buckets", len(*b)) }

func (b *bucketList) Set(s string) error {
	var acts []openflow.Action
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		key, val, _ := strings.Cut(tok, "=")
		switch key {
		case "out":
			if val == "controller" {
				acts = append(acts, openflow.Output(openflow.ControllerPort))
				continue
			}
			p, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return fmt.Errorf("bad output port %q", val)
			}
			acts = append(acts, openflow.Output(uint32(p)))
		case "drop":
			acts = append(acts, openflow.Drop())
		default:
			return fmt.Errorf("unknown bucket action %q (want out=N, out=controller or drop)", tok)
		}
	}
	*b = append(*b, acts)
	return nil
}

// doGroupMod applies one group-table modification.
func doGroupMod(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("group-mod", flag.ContinueOnError)
	op := fs.String("op", "add", "operation: add | modify | delete")
	id := fs.Uint("id", 0, "group ID")
	typ := fs.String("type", "all", "group type: all | indirect")
	var buckets bucketList
	fs.Var(&buckets, "bucket", "one bucket's comma-separated actions (repeatable): out=N | out=controller | drop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	gm := ofproto.GroupMod{ID: uint32(*id), Buckets: buckets}
	switch *op {
	case "add":
		gm.Op = ofproto.GroupModAdd
	case "modify":
		gm.Op = ofproto.GroupModModify
	case "delete":
		gm.Op = ofproto.GroupModDelete
	default:
		return fmt.Errorf("unknown -op %q (want add, modify or delete)", *op)
	}
	switch *typ {
	case "all":
		gm.Type = core.GroupAll
	case "indirect":
		gm.Type = core.GroupIndirect
	default:
		return fmt.Errorf("unknown -type %q (want all or indirect)", *typ)
	}
	if err := c.SendGroupMod(&gm); err != nil {
		return err
	}
	switch gm.Op {
	case ofproto.GroupModDelete:
		fmt.Printf("deleted group %d\n", gm.ID)
	default:
		fmt.Printf("%s group %d type=%s with %d bucket(s)\n", *op, gm.ID, *typ, len(gm.Buckets))
	}
	return nil
}

func doPacket(c *ofproto.Client, args []string) error {
	fs := flag.NewFlagSet("packet", flag.ContinueOnError)
	vlan := fs.Uint("vlan", 0, "VLAN ID")
	mac := fs.String("mac", "", "destination Ethernet")
	inport := fs.Uint("inport", 0, "ingress port")
	dst := fs.String("dst", "", "destination IPv4")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h := &openflow.Header{VLANID: uint16(*vlan), InPort: uint32(*inport)}
	if *mac != "" {
		m, err := parseMAC(*mac)
		if err != nil {
			return err
		}
		h.EthDst = m
	}
	if *dst != "" {
		ip, err := parseIPv4(*dst)
		if err != nil {
			return err
		}
		h.IPv4Dst = ip
	}
	reply, err := c.SendPacket(h)
	if err != nil {
		return err
	}
	switch {
	case reply.Flags&ofproto.ReplyDropped != 0:
		fmt.Println("dropped")
	case reply.Flags&ofproto.ReplyToController != 0:
		fmt.Println("sent to controller (table miss)")
	case len(reply.Outputs) > 0:
		fmt.Printf("forwarded to port(s) %v\n", reply.Outputs)
	default:
		fmt.Println("no output")
	}
	return nil
}
