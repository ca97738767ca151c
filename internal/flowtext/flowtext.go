// Package flowtext reads and writes flow-mod command files: the one
// line-based text format for rule sets and control-plane workloads, the
// flow-mod analogue of the packet-trace format in internal/traffic.
// cmd/flowgen writes rule sets (a file of add commands) and churn
// workloads in this format, and cmd/ofctl flow-mods replays either
// against a live switch in batched transactions.
//
// One command per line, `#` comments and blank lines ignored:
//
//	<op> <table> [prio=N] [cookie=V[/MASK]] [<match>...] [<action>...]
//
// Operations: add | modify | delete | delete-strict.
//
// A file may open with a table-options preamble pinning the lookup
// backend a table should run and/or the memory budget (in modelled
// bits) it is expected to enforce (cmd/flowgen emits one with -backend
// and -budget, and ofctl flow-mods verifies it against the live switch
// before replaying):
//
//	table-options 1 backend=tss budget=4000000
//
// backend names the concrete scheme (mbt, tss, lineartcam, dir24) or
// the pseudo-backend auto, which pins advisor ownership rather than a
// scheme: the verifier accepts any concrete backend the advisor has
// migrated the table to, as long as the table is advisor-managed.
//
// Matches (omitted fields are wildcards):
//
//	inport=N  vlan=N  meta=N  proto=N
//	ethsrc=aa:bb:cc:dd:ee:ff  ethdst=aa:bb:cc:dd:ee:ff
//	ipv4src=a.b.c.d[/len]     ipv4dst=a.b.c.d[/len]
//	arptpa=a.b.c.d            (ARP target IPv4, exact)
//	sport=N | sport=lo-hi     dport=N | dport=lo-hi
//
// Actions / instructions:
//
//	out=N | out=controller | drop     (write-actions)
//	group=N                           (write-actions: hand off to group N)
//	goto=N                            (goto-table)
//	setmeta=V[/MASK]                  (write-metadata)
//
// Lifecycle options (add/modify; seconds, 0 = no timeout):
//
//	idle=N   evict after N seconds without a matching packet
//	hard=N   evict N seconds after install regardless of traffic
//
// Example:
//
//	add 0 prio=1 vlan=10 setmeta=10/0xffffffffffffffff goto=1
//	add 1 prio=1 cookie=10 meta=10 ethdst=00:aa:bb:01:00:01 out=3
//	modify 1 ethdst=00:aa:bb:01:00:01 out=9
//	delete 1 cookie=10/0xff
//	delete-strict 1 prio=1 meta=10 ethdst=00:aa:bb:01:00:01
package flowtext

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

// opNames maps the wire operations to their text keywords.
var opNames = map[ofproto.FlowModOp]string{
	ofproto.FlowAdd:          "add",
	ofproto.FlowModify:       "modify",
	ofproto.FlowDelete:       "delete",
	ofproto.FlowDeleteStrict: "delete-strict",
	ofproto.FlowRemoveExact:  "remove-exact",
}

var opValues = map[string]ofproto.FlowModOp{
	"add":           ofproto.FlowAdd,
	"modify":        ofproto.FlowModify,
	"delete":        ofproto.FlowDelete,
	"delete-strict": ofproto.FlowDeleteStrict,
	"remove-exact":  ofproto.FlowRemoveExact,
}

// TableOption is one table-options directive: the named table should be
// served by the named lookup backend and/or enforce the named memory
// budget. The directive carries workload intent — a tuple-space churn
// benchmark replayed against a multi-bit trie switch measures the wrong
// scheme, and an overload workload replayed against an unbudgeted switch
// measures nothing — so consumers verify it against the live pipeline
// rather than silently ignoring it.
type TableOption struct {
	Table   openflow.TableID
	Backend string
	// Budget is the table's expected memory budget in modelled bits
	// (0 = not pinned).
	Budget uint64
}

// File is a parsed flow-mod command file: the table-options preamble plus
// the command stream.
type File struct {
	TableOptions []TableOption
	Commands     []ofproto.FlowMod
}

// Write renders the commands in the flow-mod text format.
func Write(w io.Writer, fms []ofproto.FlowMod) error {
	return WriteFile(w, &File{Commands: fms})
}

// WriteFile renders a command file: the table-options preamble (if any)
// followed by the commands.
func WriteFile(w io.Writer, f *File) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# flow-mods: %d commands\n", len(f.Commands))
	for _, opt := range f.TableOptions {
		if opt.Backend == "" && opt.Budget == 0 {
			return fmt.Errorf("flowtext: table-options for table %d pins neither backend nor budget", opt.Table)
		}
		fmt.Fprintf(bw, "table-options %d", opt.Table)
		if opt.Backend != "" {
			fmt.Fprintf(bw, " backend=%s", opt.Backend)
		}
		if opt.Budget > 0 {
			fmt.Fprintf(bw, " budget=%d", opt.Budget)
		}
		fmt.Fprintln(bw)
	}
	for i := range f.Commands {
		line, err := FormatCommand(&f.Commands[i])
		if err != nil {
			return fmt.Errorf("flowtext: command %d: %w", i, err)
		}
		fmt.Fprintln(bw, line)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flowtext: writing commands: %w", err)
	}
	return nil
}

// FormatCommand renders one command as a line of the text format.
func FormatCommand(fm *ofproto.FlowMod) (string, error) {
	op, ok := opNames[fm.Op]
	if !ok {
		return "", fmt.Errorf("unsupported op %d", int(fm.Op))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d", op, fm.Table)
	if fm.Entry.Priority != 0 {
		fmt.Fprintf(&b, " prio=%d", fm.Entry.Priority)
	}
	if fm.Entry.IdleTimeout != 0 {
		fmt.Fprintf(&b, " idle=%d", fm.Entry.IdleTimeout)
	}
	if fm.Entry.HardTimeout != 0 {
		fmt.Fprintf(&b, " hard=%d", fm.Entry.HardTimeout)
	}
	if fm.Entry.Cookie != 0 || fm.CookieMask != 0 {
		fmt.Fprintf(&b, " cookie=%#x", fm.Entry.Cookie)
		if fm.CookieMask != 0 {
			fmt.Fprintf(&b, "/%#x", fm.CookieMask)
		}
	}
	for _, m := range fm.Entry.Matches {
		tok, err := formatMatch(m)
		if err != nil {
			return "", err
		}
		if tok != "" {
			b.WriteByte(' ')
			b.WriteString(tok)
		}
	}
	for _, in := range fm.Entry.Instructions {
		toks, err := formatInstruction(in)
		if err != nil {
			return "", err
		}
		for _, tok := range toks {
			b.WriteByte(' ')
			b.WriteString(tok)
		}
	}
	return b.String(), nil
}

// matchKeys maps text keys to fields for the exact/decimal matches.
var matchKeys = map[string]openflow.FieldID{
	"inport": openflow.FieldInPort,
	"vlan":   openflow.FieldVLANID,
	"meta":   openflow.FieldMetadata,
	"proto":  openflow.FieldIPProto,
}

func formatMatch(m openflow.Match) (string, error) {
	if m.Kind == openflow.MatchAny {
		return "", nil // absent and explicit wildcard are the same
	}
	switch m.Field {
	case openflow.FieldInPort, openflow.FieldVLANID, openflow.FieldMetadata, openflow.FieldIPProto:
		if m.Kind != openflow.MatchExact {
			return "", fmt.Errorf("field %s supports only exact matches, got %s", m.Field, m.Kind)
		}
		for key, f := range matchKeys {
			if f == m.Field {
				return fmt.Sprintf("%s=%d", key, m.Value.Lo), nil
			}
		}
	case openflow.FieldEthSrc, openflow.FieldEthDst:
		if m.Kind != openflow.MatchExact {
			return "", fmt.Errorf("field %s supports only exact matches, got %s", m.Field, m.Kind)
		}
		key := "ethdst"
		if m.Field == openflow.FieldEthSrc {
			key = "ethsrc"
		}
		return fmt.Sprintf("%s=%s", key, formatMAC(m.Value.Lo)), nil
	case openflow.FieldIPv4Src, openflow.FieldIPv4Dst:
		key := "ipv4dst"
		if m.Field == openflow.FieldIPv4Src {
			key = "ipv4src"
		}
		switch m.Kind {
		case openflow.MatchExact:
			return fmt.Sprintf("%s=%s", key, openflow.FormatIPv4(uint32(m.Value.Lo))), nil
		case openflow.MatchPrefix:
			return fmt.Sprintf("%s=%s/%d", key, openflow.FormatIPv4(uint32(m.Value.Lo)), m.PrefixLen), nil
		default:
			return "", fmt.Errorf("field %s: unsupported match kind %s", m.Field, m.Kind)
		}
	case openflow.FieldARPTPA:
		if m.Kind != openflow.MatchExact {
			return "", fmt.Errorf("field %s supports only exact matches, got %s", m.Field, m.Kind)
		}
		return "arptpa=" + openflow.FormatIPv4(uint32(m.Value.Lo)), nil
	case openflow.FieldSrcPort, openflow.FieldDstPort:
		key := "dport"
		if m.Field == openflow.FieldSrcPort {
			key = "sport"
		}
		switch m.Kind {
		case openflow.MatchExact:
			return fmt.Sprintf("%s=%d", key, m.Value.Lo), nil
		case openflow.MatchRange:
			return fmt.Sprintf("%s=%d-%d", key, m.Lo, m.Hi), nil
		default:
			return "", fmt.Errorf("field %s: unsupported match kind %s", m.Field, m.Kind)
		}
	}
	return "", fmt.Errorf("field %s not representable in flow-mod text", m.Field)
}

func formatInstruction(in openflow.Instruction) ([]string, error) {
	switch in.Type {
	case openflow.InstrGotoTable:
		return []string{fmt.Sprintf("goto=%d", in.Table)}, nil
	case openflow.InstrWriteMetadata:
		if in.MetadataMask == ^uint64(0) {
			return []string{fmt.Sprintf("setmeta=%d", in.Metadata)}, nil
		}
		return []string{fmt.Sprintf("setmeta=%d/%#x", in.Metadata, in.MetadataMask)}, nil
	case openflow.InstrWriteActions:
		var toks []string
		for _, a := range in.Actions {
			switch a.Type {
			case openflow.ActionOutput:
				if a.Port == openflow.ControllerPort {
					toks = append(toks, "out=controller")
				} else {
					toks = append(toks, fmt.Sprintf("out=%d", a.Port))
				}
			case openflow.ActionDrop:
				toks = append(toks, "drop")
			case openflow.ActionGroup:
				toks = append(toks, fmt.Sprintf("group=%d", a.Port))
			default:
				return nil, fmt.Errorf("action %s not representable in flow-mod text", a.Type)
			}
		}
		return toks, nil
	default:
		return nil, fmt.Errorf("instruction %s not representable in flow-mod text", in.Type)
	}
}

func formatMAC(v uint64) string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Read parses a flow-mod command file, returning the commands only (any
// table-options preamble is parsed and discarded; use ReadFile to get
// it).
func Read(r io.Reader) ([]ofproto.FlowMod, error) {
	f, err := ReadFile(r)
	if err != nil {
		return nil, err
	}
	return f.Commands, nil
}

// ReadFile parses a flow-mod command file including its table-options
// preamble.
func ReadFile(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	out := &File{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		if strings.HasPrefix(text, "table-options ") || text == "table-options" {
			opt, err := ParseTableOption(text)
			if err != nil {
				return nil, fmt.Errorf("flowtext: line %d: %w", line, err)
			}
			out.TableOptions = append(out.TableOptions, opt)
			continue
		}
		fm, err := ParseCommand(text)
		if err != nil {
			return nil, fmt.Errorf("flowtext: line %d: %w", line, err)
		}
		out.Commands = append(out.Commands, *fm)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flowtext: reading commands: %w", err)
	}
	return out, nil
}

// ParseTableOption parses one `table-options <table> key=value...` line.
// The recognised keys are backend and budget (memory budget in modelled
// bits); at least one must be present.
func ParseTableOption(text string) (TableOption, error) {
	fields := strings.Fields(text)
	if len(fields) < 3 || fields[0] != "table-options" {
		return TableOption{}, fmt.Errorf("want `table-options <table> backend=<kind> budget=<bits>`, got %q", text)
	}
	table, err := strconv.ParseUint(fields[1], 10, 8)
	if err != nil {
		return TableOption{}, fmt.Errorf("bad table %q", fields[1])
	}
	opt := TableOption{Table: openflow.TableID(table)}
	seen := map[string]bool{}
	for _, tok := range fields[2:] {
		key, val, _ := strings.Cut(tok, "=")
		// A duplicated key is almost certainly a hand-edit gone wrong; a
		// silent last-one-wins would replay the workload against the
		// wrong backend or budget, so reject it (ReadFile prefixes the
		// line number).
		if seen[key] {
			return TableOption{}, fmt.Errorf("duplicate table-options key %q", key)
		}
		seen[key] = true
		switch key {
		case "backend":
			if val == "" {
				return TableOption{}, fmt.Errorf("backend takes a value")
			}
			opt.Backend = val
		case "budget":
			b, err := strconv.ParseUint(val, 10, 64)
			if err != nil || b == 0 {
				return TableOption{}, fmt.Errorf("bad budget %q (want bits > 0)", val)
			}
			opt.Budget = b
		default:
			return TableOption{}, fmt.Errorf("unknown table-options token %q", tok)
		}
	}
	if opt.Backend == "" && opt.Budget == 0 {
		return TableOption{}, fmt.Errorf("table-options for table %d pins neither backend nor budget", opt.Table)
	}
	return opt, nil
}

// ParseCommand parses one command line.
func ParseCommand(text string) (*ofproto.FlowMod, error) {
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return nil, fmt.Errorf("want `<op> <table> ...`, got %q", text)
	}
	op, ok := opValues[fields[0]]
	if !ok {
		return nil, fmt.Errorf("unknown op %q", fields[0])
	}
	table, err := strconv.ParseUint(fields[1], 10, 8)
	if err != nil {
		return nil, fmt.Errorf("bad table %q", fields[1])
	}
	fm := &ofproto.FlowMod{Op: op, Table: openflow.TableID(table)}
	var writeActs []openflow.Action
	var metaInstr, gotoInstr *openflow.Instruction
	for _, tok := range fields[2:] {
		key, val, hasVal := strings.Cut(tok, "=")
		switch key {
		case "prio":
			p, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("bad priority %q", val)
			}
			fm.Entry.Priority = p
		case "cookie":
			c, m, err := parseValMask(val)
			if err != nil {
				return nil, fmt.Errorf("bad cookie %q: %w", val, err)
			}
			fm.Entry.Cookie, fm.CookieMask = c, m
		case "inport", "vlan", "meta", "proto":
			v, err := parseUint(val)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q", key, val)
			}
			fm.Entry.Matches = append(fm.Entry.Matches, openflow.Exact(matchKeys[key], v))
		case "ethsrc", "ethdst":
			v, err := parseMAC(val)
			if err != nil {
				return nil, err
			}
			f := openflow.FieldEthDst
			if key == "ethsrc" {
				f = openflow.FieldEthSrc
			}
			fm.Entry.Matches = append(fm.Entry.Matches, openflow.Exact(f, v))
		case "ipv4src", "ipv4dst":
			f := openflow.FieldIPv4Dst
			if key == "ipv4src" {
				f = openflow.FieldIPv4Src
			}
			m, err := parseIPv4Match(f, val)
			if err != nil {
				return nil, err
			}
			fm.Entry.Matches = append(fm.Entry.Matches, m)
		case "arptpa":
			m, err := parseIPv4Match(openflow.FieldARPTPA, val)
			if err != nil {
				return nil, err
			}
			if m.Kind != openflow.MatchExact {
				return nil, fmt.Errorf("arptpa takes an address, not a prefix: %q", val)
			}
			fm.Entry.Matches = append(fm.Entry.Matches, m)
		case "sport", "dport":
			f := openflow.FieldDstPort
			if key == "sport" {
				f = openflow.FieldSrcPort
			}
			m, err := parsePortMatch(f, val)
			if err != nil {
				return nil, err
			}
			fm.Entry.Matches = append(fm.Entry.Matches, m)
		case "out":
			if val == "controller" {
				writeActs = append(writeActs, openflow.Output(openflow.ControllerPort))
				break
			}
			p, err := parseUint(val)
			if err != nil {
				return nil, fmt.Errorf("bad output port %q", val)
			}
			writeActs = append(writeActs, openflow.Output(uint32(p)))
		case "drop":
			if hasVal {
				return nil, fmt.Errorf("drop takes no value")
			}
			writeActs = append(writeActs, openflow.Drop())
		case "group":
			g, err := parseUint(val)
			if err != nil || g > 0xFFFFFFFF {
				return nil, fmt.Errorf("bad group id %q", val)
			}
			writeActs = append(writeActs, openflow.Group(uint32(g)))
		case "idle":
			t, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("bad idle timeout %q (want seconds, 0-65535)", val)
			}
			fm.Entry.IdleTimeout = uint16(t)
		case "hard":
			t, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("bad hard timeout %q (want seconds, 0-65535)", val)
			}
			fm.Entry.HardTimeout = uint16(t)
		case "goto":
			tgt, err := strconv.ParseUint(val, 10, 8)
			if err != nil {
				return nil, fmt.Errorf("bad goto table %q", val)
			}
			in := openflow.GotoTable(openflow.TableID(tgt))
			gotoInstr = &in
		case "setmeta":
			v, m, err := parseValMask(val)
			if err != nil {
				return nil, fmt.Errorf("bad setmeta %q: %w", val, err)
			}
			if m == 0 {
				m = ^uint64(0)
			}
			in := openflow.WriteMetadata(v, m)
			metaInstr = &in
		default:
			return nil, fmt.Errorf("unknown token %q", tok)
		}
	}
	// Canonical instruction order: write-metadata, goto-table,
	// write-actions — the order the pipeline builders use.
	if metaInstr != nil {
		fm.Entry.Instructions = append(fm.Entry.Instructions, *metaInstr)
	}
	if gotoInstr != nil {
		fm.Entry.Instructions = append(fm.Entry.Instructions, *gotoInstr)
	}
	if len(writeActs) > 0 {
		fm.Entry.Instructions = append(fm.Entry.Instructions, openflow.WriteActions(writeActs...))
	}
	return fm, nil
}

func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(s, "0x"), base(s), 64)
}

func base(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

// ParseValMask parses V or V/MASK with decimal or 0x-hex numbers — the
// cookie/metadata syntax of the command format, exported for CLIs that
// accept the same notation in flags.
func ParseValMask(s string) (v, mask uint64, err error) {
	return parseValMask(s)
}

// parseValMask parses V or V/MASK with decimal or 0x-hex numbers.
func parseValMask(s string) (v, mask uint64, err error) {
	vs, ms, hasMask := strings.Cut(s, "/")
	v, err = parseUint(vs)
	if err != nil {
		return 0, 0, err
	}
	if hasMask {
		mask, err = parseUint(ms)
		if err != nil {
			return 0, 0, err
		}
	}
	return v, mask, nil
}

func parseMAC(s string) (uint64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return 0, fmt.Errorf("malformed MAC %q", s)
	}
	var v uint64
	for _, p := range parts {
		b, err := strconv.ParseUint(p, 16, 8)
		if err != nil || len(p) != 2 {
			return 0, fmt.Errorf("malformed MAC octet %q", p)
		}
		v = v<<8 | b
	}
	return v, nil
}

func parseIPv4Match(f openflow.FieldID, s string) (openflow.Match, error) {
	addr, plenStr, hasLen := strings.Cut(s, "/")
	quads := strings.Split(addr, ".")
	if len(quads) != 4 {
		return openflow.Match{}, fmt.Errorf("malformed IPv4 %q", s)
	}
	var v uint32
	for _, q := range quads {
		b, err := strconv.ParseUint(q, 10, 8)
		if err != nil {
			return openflow.Match{}, fmt.Errorf("malformed IPv4 octet %q", q)
		}
		v = v<<8 | uint32(b)
	}
	if !hasLen {
		return openflow.Exact(f, uint64(v)), nil
	}
	plen, err := strconv.Atoi(plenStr)
	if err != nil || plen < 0 || plen > 32 {
		return openflow.Match{}, fmt.Errorf("bad prefix length %q", plenStr)
	}
	return openflow.Prefix(f, uint64(v), plen), nil
}

func parsePortMatch(f openflow.FieldID, s string) (openflow.Match, error) {
	lo, hi, isRange := strings.Cut(s, "-")
	l, err := strconv.ParseUint(lo, 10, 16)
	if err != nil {
		return openflow.Match{}, fmt.Errorf("bad port %q", s)
	}
	if !isRange {
		return openflow.Exact(f, l), nil
	}
	h, err := strconv.ParseUint(hi, 10, 16)
	if err != nil {
		return openflow.Match{}, fmt.Errorf("bad port range %q", s)
	}
	return openflow.Range(f, l, h), nil
}
