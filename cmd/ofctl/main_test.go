package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

func TestParseMAC(t *testing.T) {
	v, err := parseMAC("00:11:22:33:44:55")
	if err != nil || v != 0x001122334455 {
		t.Errorf("parseMAC = %x, %v", v, err)
	}
	for _, bad := range []string{"", "00:11:22:33:44", "zz:11:22:33:44:55", "0011:22:33:44:55:66"} {
		if _, err := parseMAC(bad); err == nil {
			t.Errorf("parseMAC(%q) should fail", bad)
		}
	}
}

func TestParseCIDRAndIPv4(t *testing.T) {
	v, plen, err := parseCIDR("10.1.2.0/24")
	if err != nil || v != 0x0A010200 || plen != 24 {
		t.Errorf("parseCIDR = %x/%d, %v", v, plen, err)
	}
	if _, _, err := parseCIDR("10.1.2.0"); err == nil {
		t.Error("missing /len should fail")
	}
	ip, err := parseIPv4("192.168.0.1")
	if err != nil || ip != 0xC0A80001 {
		t.Errorf("parseIPv4 = %x, %v", ip, err)
	}
	if _, err := parseIPv4("192.168.0"); err == nil {
		t.Error("short IPv4 should fail")
	}
}

// serve runs a switch over p on a loopback port until the test ends and
// returns its address.
func serve(t *testing.T, p *core.Pipeline) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return l.Addr().String()
}

// TestAddPairIsAtomic pins that add-mac and add-route commit a rule's two
// entries as one transaction: on a switch whose second table is missing,
// the rejected second entry leaves the first uninstalled too.
func TestAddPairIsAtomic(t *testing.T) {
	p := core.NewPipeline()
	for _, tc := range []core.TableConfig{
		{ID: 0, Fields: []openflow.FieldID{openflow.FieldVLANID}},
		{ID: 2, Fields: []openflow.FieldID{openflow.FieldInPort}},
	} {
		if _, err := p.AddTable(tc); err != nil {
			t.Fatal(err)
		}
	}
	addr := serve(t, p)
	for _, args := range [][]string{
		{"-addr", addr, "add-mac", "-vlan", "10", "-mac", "00:11:22:33:44:55", "-port", "3"},
		{"-addr", addr, "add-route", "-inport", "2", "-prefix", "10.0.0.0/8", "-nexthop", "7"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("ofctl %v: committed a pair whose second table is missing", args)
		}
		if n := p.Rules(); n != 0 {
			t.Fatalf("ofctl %v: rejected pair left %d entries installed", args, n)
		}
	}
	if tx := p.TxCounters(); tx.Rejected != 2 || tx.Txs != 0 {
		t.Errorf("tx counters = %+v, want 2 rejected and none committed", tx)
	}
}

// TestUnknownSubcommandBeforeDial pins that an unknown verb is rejected
// before dialing: with nothing listening, the error names the verb, not
// the unreachable switch.
func TestUnknownSubcommandBeforeDial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	err = run([]string{"-addr", addr, "-timeout", "1s", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `unknown subcommand "bogus"`) {
		t.Fatalf("ofctl bogus with no switch: %v, want an unknown subcommand error", err)
	}
	err = run([]string{"-addr", addr})
	if err == nil || !strings.Contains(err.Error(), "<stats|add-mac|del-mac|add-route|del-route|flow-mods|flows|group-mod|packet>") {
		t.Errorf("usage = %v, want every verb listed", err)
	}
}

// TestFlowgenRuleSetsLoad replays flowgen's rule-set files for the MAC
// and routing applications of two filters through flow-mods into an
// empty prototype. The tables must hold the rule counts the removed
// `ofctl load` left from the old filter files (recorded below), and every
// header of a 4096-packet trace must get the verdict the in-process
// builder's pipeline gives.
func TestFlowgenRuleSetsLoad(t *testing.T) {
	flowgen := filepath.Join(t.TempDir(), "flowgen")
	if out, err := exec.Command("go", "build", "-o", flowgen, "../flowgen").CombinedOutput(); err != nil {
		t.Fatalf("building flowgen: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name   string
		counts []int
	}{
		{"bbra", []int{48, 507, 40, 1835}},
		{"coza", []int{32, 3295, 43, 184909}},
	} {
		p, err := core.BuildPrototype(&filterset.MACFilter{Name: "empty"}, &filterset.RouteFilter{Name: "empty"})
		if err != nil {
			t.Fatal(err)
		}
		addr := serve(t, p)
		for _, app := range []string{"mac", "route"} {
			file := filepath.Join(t.TempDir(), app+".txt")
			if out, err := exec.Command(flowgen, "-app", app, "-name", tc.name, "-o", file).CombinedOutput(); err != nil {
				t.Fatalf("flowgen -app %s -name %s: %v\n%s", app, tc.name, err, out)
			}
			if err := run([]string{"-addr", addr, "flow-mods", "-file", file}); err != nil {
				t.Fatalf("%s %s: flow-mods: %v", tc.name, app, err)
			}
		}
		var counts []int
		for _, ti := range p.TableInfos() {
			counts = append(counts, ti.Rules)
		}
		if !slices.Equal(counts, tc.counts) {
			t.Errorf("%s: per-table rules %v, want %v", tc.name, counts, tc.counts)
		}

		mac, err := filterset.GenerateMAC(tc.name, filterset.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		route, err := filterset.GenerateRoute(tc.name, filterset.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.BuildPrototype(mac, route)
		if err != nil {
			t.Fatal(err)
		}
		hs := append(traffic.MACTrace(mac, 2048, 0.9, 1), traffic.RouteTrace(route, 2048, 0.9, 1)...)
		for i := range hs {
			got, want := p.Execute(&hs[i]), ref.Execute(&hs[i])
			if got.SentToController != want.SentToController || got.Dropped != want.Dropped || !slices.Equal(got.Outputs, want.Outputs) {
				t.Fatalf("%s header %d (%v): loaded %+v, builder %+v", tc.name, i, &hs[i], got, want)
			}
		}
	}
}

// TestSubcommandsEndToEnd drives the ofctl command surface against an
// in-process switch.
func TestSubcommandsEndToEnd(t *testing.T) {
	p, err := core.BuildPrototype(
		&filterset.MACFilter{Name: "empty"},
		&filterset.RouteFilter{Name: "empty"},
	)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	addr := l.Addr().String()

	cmds := [][]string{
		{"-addr", addr, "add-mac", "-vlan", "10", "-mac", "00:11:22:33:44:55", "-port", "3"},
		{"-addr", addr, "add-route", "-inport", "2", "-prefix", "10.0.0.0/8", "-nexthop", "7"},
		{"-addr", addr, "packet", "-vlan", "10", "-mac", "00:11:22:33:44:55"},
		{"-addr", addr, "packet", "-inport", "2", "-dst", "10.9.9.9"},
		{"-addr", addr, "stats"},
	}
	for _, args := range cmds {
		if err := run(args); err != nil {
			t.Fatalf("ofctl %v: %v", args, err)
		}
	}
	// Error paths surface as errors, not panics.
	if err := run([]string{"-addr", addr, "nope"}); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"-addr", addr}); err == nil {
		t.Error("missing subcommand should error")
	}
	if err := run([]string{"-addr", addr, "add-mac", "-mac", "garbage"}); err == nil {
		t.Error("bad MAC should error")
	}
	// A VLAN or port wider than its field is refused, not truncated to
	// another rule's key (65546 would wrap to VLAN 10, installed above).
	for _, args := range [][]string{
		{"-addr", addr, "add-mac", "-vlan", "65546", "-mac", "00:11:22:33:44:55"},
		{"-addr", addr, "del-mac", "-vlan", "65546", "-mac", "00:11:22:33:44:55"},
		{"-addr", addr, "add-route", "-inport", "4294967298", "-prefix", "10.0.0.0/8"},
		{"-addr", addr, "del-route", "-inport", "4294967298", "-prefix", "10.0.0.0/8"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "must be at most") {
			t.Errorf("ofctl %v: %v, want an out-of-range error", args[2:], err)
		}
	}
	if n := p.Rules(); n != 4 {
		t.Errorf("after the refused commands the switch holds %d rules, want the 4 installed above", n)
	}
}

// TestDeleteSubcommandsEndToEnd drives del-mac / del-route against a live
// switch: installed entries disappear, packets fall back to the miss
// path, and deleting a missing entry errors.
func TestDeleteSubcommandsEndToEnd(t *testing.T) {
	p, err := core.BuildPrototype(
		&filterset.MACFilter{Name: "empty"},
		&filterset.RouteFilter{Name: "empty"},
	)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	addr := l.Addr().String()

	steps := [][]string{
		{"-addr", addr, "add-mac", "-vlan", "10", "-mac", "00:11:22:33:44:55", "-port", "3"},
		{"-addr", addr, "add-route", "-inport", "2", "-prefix", "10.0.0.0/8", "-nexthop", "7"},
		{"-addr", addr, "del-mac", "-vlan", "10", "-mac", "00:11:22:33:44:55"},
		{"-addr", addr, "del-route", "-inport", "2", "-prefix", "10.0.0.0/8"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("ofctl %v: %v", args, err)
		}
	}
	// The deleted MAC no longer forwards.
	c, err := ofproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	reply, err := c.SendPacket(&openflow.Header{VLANID: 10, EthDst: 0x001122334455})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Outputs) != 0 {
		t.Fatalf("deleted MAC still forwards to %v", reply.Outputs)
	}
	// Deleting again errors (nothing matched).
	if err := run([]string{"-addr", addr, "del-mac", "-vlan", "10", "-mac", "00:11:22:33:44:55"}); err == nil {
		t.Error("double delete should error")
	}
	if err := run([]string{"-addr", addr, "del-route", "-inport", "2", "-prefix", "10.0.0.0/8"}); err == nil {
		t.Error("double route delete should error")
	}
}

// TestFlowModsSubcommandEndToEnd replays a flow-mod command file in
// batched transactions and verifies the resulting table state.
func TestFlowModsSubcommandEndToEnd(t *testing.T) {
	p, err := core.BuildPrototype(
		&filterset.MACFilter{Name: "empty"},
		&filterset.RouteFilter{Name: "empty"},
	)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	addr := l.Addr().String()

	file := filepath.Join(t.TempDir(), "cmds.txt")
	script := `# three hosts on VLAN 10, then one modified and one deleted
add 0 prio=1 vlan=10 setmeta=10 goto=1
add 1 prio=1 cookie=10 meta=10 ethdst=00:aa:00:00:00:01 out=1
add 1 prio=1 cookie=10 meta=10 ethdst=00:aa:00:00:00:02 out=2
add 1 prio=1 cookie=10 meta=10 ethdst=00:aa:00:00:00:03 out=3
modify 1 ethdst=00:aa:00:00:00:02 out=22
delete-strict 1 prio=1 meta=10 ethdst=00:aa:00:00:00:03
`
	if err := os.WriteFile(file, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	// Batch size 2 forces multiple transactions.
	if err := run([]string{"-addr", addr, "flow-mods", "-file", file, "-batch", "2"}); err != nil {
		t.Fatalf("flow-mods: %v", err)
	}

	c, err := ofproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	checks := []struct {
		mac  uint64
		port uint32 // 0 = miss
	}{
		{0x00AA00000001, 1},
		{0x00AA00000002, 22},
		{0x00AA00000003, 0},
	}
	for _, chk := range checks {
		reply, err := c.SendPacket(&openflow.Header{VLANID: 10, EthDst: chk.mac})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case chk.port == 0 && len(reply.Outputs) != 0:
			t.Errorf("mac %x: want miss, got %v", chk.mac, reply.Outputs)
		case chk.port != 0 && (len(reply.Outputs) != 1 || reply.Outputs[0] != chk.port):
			t.Errorf("mac %x: outputs = %v, want [%d]", chk.mac, reply.Outputs, chk.port)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tx.Txs != 3 || st.Tx.Commands != 6 {
		t.Errorf("tx stats = %d txs / %d commands, want 3 / 6", st.Tx.Txs, st.Tx.Commands)
	}
	// A file with a bad command errors client-side before any send.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("explode 0 vlan=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", addr, "flow-mods", "-file", bad}); err == nil {
		t.Error("bad command file should error")
	}
}

// TestDIR24TableOptionsShapeEndToEnd drives the flow-mods table-options
// shape check against a live switch: a workload pinning dir24 on a
// table whose match fields the backend can never serve is refused
// up-front with the prefix-restriction error — not at the first insert
// — while the same pin on the switch's dir24 prefix table replays
// cleanly.
func TestDIR24TableOptionsShapeEndToEnd(t *testing.T) {
	p := core.NewPipeline()
	if err := core.AddMACTables(p, &filterset.MACFilter{Name: "empty"}, 0, core.MissPolicy{Kind: core.MissController}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTable(core.TableConfig{
		ID:      2,
		Fields:  []openflow.FieldID{openflow.FieldIPv4Dst},
		Backend: core.BackendDIR24,
	}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	addr := l.Addr().String()

	dir := t.TempDir()
	lpmScript := "table-options 2 backend=dir24\nadd 2 prio=24 ipv4dst=10.1.2.0/24 out=7\nadd 2 prio=32 ipv4dst=10.9.9.9/32 out=8\n"
	good := filepath.Join(dir, "lpm.txt")
	if err := os.WriteFile(good, []byte(lpmScript), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", addr, "flow-mods", "-file", good}); err != nil {
		t.Fatalf("flow-mods with dir24 pin on the prefix table: %v", err)
	}

	// Table 1 matches (Metadata, EthDst): dir24 can never serve it, and
	// the refusal must say why rather than suggest re-running switchd.
	badScript := "table-options 1 backend=dir24\nadd 1 prio=1 meta=10 ethdst=00:aa:00:00:00:01 out=1\n"
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte(badScript), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-addr", addr, "flow-mods", "-file", bad})
	if err == nil {
		t.Fatal("flow-mods should refuse a dir24 pin on a non-prefix table")
	}
	if !strings.Contains(err.Error(), "longest-prefix-match") {
		t.Errorf("refusal should explain the prefix restriction, got: %v", err)
	}

	// The report renders the mixed-width backend mix (mbt + the 5-char
	// dir24 name) without erroring.
	if err := run([]string{"-addr", addr, "stats"}); err != nil {
		t.Fatalf("stats: %v", err)
	}

	// The dir24 table's stats moved under the replayed inserts.
	c, err := ofproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ms := st.Memory
	var dirTable *core.TableMemory
	for i := range ms.Tables {
		if ms.Tables[i].Table == 2 {
			dirTable = &ms.Tables[i]
		}
	}
	if dirTable == nil || dirTable.Backend != core.BackendDIR24 {
		t.Fatalf("table 2 not reported as dir24: %+v", ms.Tables)
	}
	if dirTable.Rules != 2 || dirTable.SearchBits == 0 || dirTable.IndexBits == 0 {
		t.Errorf("dir24 stats = %+v, want 2 rules with array and spill bits", dirTable)
	}
}

// TestMemoryAndTableOptionsEndToEnd drives the stats subcommand and the
// flow-mods table-options verification — backend, auto and budget pins —
// against a live switch running a non-default backend.
func TestMemoryAndTableOptionsEndToEnd(t *testing.T) {
	p := core.NewPipeline()
	if err := p.SetDefaultBackend(core.BackendTSS); err != nil {
		t.Fatal(err)
	}
	if err := core.AddMACTables(p, &filterset.MACFilter{Name: "empty"}, 0, core.MissPolicy{Kind: core.MissController}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTable(core.TableConfig{ID: 2, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Backend: core.BackendAuto}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetTableBudget(1, 1<<20); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ofproto.NewServer(p, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	addr := l.Addr().String()

	if err := run([]string{"-addr", addr, "stats"}); err != nil {
		t.Fatalf("stats: %v", err)
	}

	dir := t.TempDir()
	script := "add 0 prio=1 vlan=10 setmeta=10 goto=1\nadd 1 prio=1 meta=10 ethdst=00:aa:00:00:00:01 out=1\n"
	pinned := filepath.Join(dir, "pinned.txt")
	if err := os.WriteFile(pinned, []byte("table-options 1 backend=tss\n"+script), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", addr, "flow-mods", "-file", pinned}); err != nil {
		t.Fatalf("flow-mods with matching pin: %v", err)
	}

	mismatched := filepath.Join(dir, "mismatched.txt")
	if err := os.WriteFile(mismatched, []byte("table-options 1 backend=lineartcam\n"+script), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-addr", addr, "flow-mods", "-file", mismatched}); err == nil {
		t.Fatal("flow-mods should refuse a workload pinned to another backend")
	}
	if err := run([]string{"-addr", addr, "flow-mods", "-file", mismatched, "-ignore-table-options"}); err != nil {
		t.Fatalf("-ignore-table-options should replay anyway: %v", err)
	}

	// Auto and budget pins: each accepted where the switch matches it,
	// refused where it does not.
	for _, pin := range []struct {
		opts string
		ok   bool
	}{
		{"table-options 2 backend=auto", true},
		{"table-options 1 backend=auto", false},
		{"table-options 1 budget=1048576", true},
		{"table-options 1 budget=1048577", false},
	} {
		file := filepath.Join(dir, "pin.txt")
		if err := os.WriteFile(file, []byte(pin.opts+"\n"+script), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-addr", addr, "flow-mods", "-file", file}); (err == nil) != pin.ok {
			t.Errorf("%q: flow-mods err = %v, want accepted = %v", pin.opts, err, pin.ok)
		}
	}

	// The wire-reported backends reflect the pipeline.
	c, err := ofproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ms := st.Memory
	if len(ms.Tables) != 3 || ms.Tables[0].Backend != core.BackendTSS || ms.Tables[1].Backend != core.BackendTSS {
		t.Errorf("wire backends: %+v", ms.Tables)
	}
	if ms.Tables[1].Rules == 0 || ms.TotalBits == 0 {
		t.Errorf("memory stats did not move under inserts: %+v", ms)
	}
}
