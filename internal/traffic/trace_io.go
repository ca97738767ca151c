package traffic

import (
	"bufio"
	"fmt"
	"io"

	"ofmtl/internal/openflow"
)

// Text trace format: one packet header per line, whitespace-separated
// fields in a fixed order, `#` comment lines ignored. The format carries
// the fields the repository's pipelines classify on; it is the trace
// analogue of the rule-file format in internal/flowtext, so generated
// workloads (including the Zipf-skewed ones) can be saved, diffed and
// replayed.
//
//	inport vlan ethsrc ethdst ethtype ipv4src ipv4dst sport dport proto
//
// Ethernet addresses are hexadecimal, everything else decimal.

// WriteTrace writes hs in the text trace format.
func WriteTrace(w io.Writer, hs []openflow.Header) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace: %d packets\n", len(hs))
	fmt.Fprintln(bw, "# inport vlan ethsrc ethdst ethtype ipv4src ipv4dst sport dport proto")
	for i := range hs {
		h := &hs[i]
		if _, err := fmt.Fprintf(bw, "%d %d %012x %012x %d %d %d %d %d %d\n",
			h.InPort, h.VLANID, h.EthSrc, h.EthDst, h.EthType,
			h.IPv4Src, h.IPv4Dst, h.SrcPort, h.DstPort, h.IPProto); err != nil {
			return fmt.Errorf("traffic: writing trace: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a text trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]openflow.Header, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var out []openflow.Header
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var h openflow.Header
		n, err := fmt.Sscanf(text, "%d %d %x %x %d %d %d %d %d %d",
			&h.InPort, &h.VLANID, &h.EthSrc, &h.EthDst, &h.EthType,
			&h.IPv4Src, &h.IPv4Dst, &h.SrcPort, &h.DstPort, &h.IPProto)
		if err != nil || n != 10 {
			return nil, fmt.Errorf("traffic: trace line %d: %v", line, err)
		}
		out = append(out, h)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: reading trace: %w", err)
	}
	return out, nil
}
