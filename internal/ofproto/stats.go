package ofproto

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ofmtl/internal/core"
)

// Stats is the switch report: one section per pipeline stats accessor,
// carried as the accessor's own value. It travels as JSON in
// MsgStatsReply (AppendStats/DecodeStats), so every count keeps the
// width core gives it and nothing translates between core types and
// wire types.
type Stats struct {
	// Tables is the per-table status view (fields, rule counts).
	Tables []core.TableInfo `json:"tables"`
	// Memory is the live per-table memory accounting (backend, search /
	// index / action bits, budgets) and the process total and budget.
	Memory core.MemoryStats `json:"memory"`
	// M20KBlocks is the memory model's FPGA block count for Memory's
	// total (the paper's Tables III/IV).
	M20KBlocks int            `json:"m20k_blocks"`
	Microflow  core.TierStats `json:"microflow"`
	Megaflow   core.TierStats `json:"megaflow"`
	// Pressure is the cache-tier degradation controller's activity
	// against the memory budget.
	Pressure  core.PressureStats  `json:"pressure"`
	Tx        core.TxCounters     `json:"tx"`
	Lifecycle core.LifecycleStats `json:"lifecycle"`
	// Advisor is the backend advisor's per-table signals, candidate
	// scores and migration history.
	Advisor core.AdvisorStats `json:"advisor"`
}

// CollectStats assembles the report from the pipeline's accessors. The
// memory, cache, pressure, transaction and lifecycle sections are
// lock-free reads; TableInfos and AdvisorStats take the pipeline write
// lock briefly, so the report is safe against concurrent flow-mods.
func CollectStats(p *core.Pipeline) *Stats {
	return &Stats{
		Tables:     p.TableInfos(),
		Memory:     p.MemoryStats(),
		M20KBlocks: p.MemoryReport().Blocks,
		Microflow:  p.CacheStats(),
		Megaflow:   p.MegaflowStats(),
		Pressure:   p.PressureStats(),
		Tx:         p.TxCounters(),
		Lifecycle:  p.LifecycleStats(),
		Advisor:    p.AdvisorStats(),
	}
}

// TotalRules sums the per-table rule counts.
func (s *Stats) TotalRules() int {
	n := 0
	for _, t := range s.Tables {
		n += t.Rules
	}
	return n
}

// AppendStats appends the wire form of a stats report to buf.
func AppendStats(buf []byte, s *Stats) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return buf, fmt.Errorf("ofproto: encoding stats: %w", err)
	}
	return append(buf, b...), nil
}

// DecodeStats parses a stats report.
func DecodeStats(payload []byte) (*Stats, error) {
	var s Stats
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("ofproto: decoding stats: %w", err)
	}
	return &s, nil
}

// WriteText renders the report for operators: tables with their memory
// breakdown and budgets, both cache tiers, pressure, transactions,
// lifecycle, and the advisor's rows with every candidate's score.
func (s *Stats) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	mem := &s.Memory
	fmt.Fprintf(bw, "tables: %d, total rules: %d\n", len(s.Tables), s.TotalRules())
	fmt.Fprintf(bw, "memory: %d bits (%.3f Mbit, %d bytes) in %d M20K blocks\n",
		mem.TotalBits, float64(mem.TotalBits)/1e6, mem.TotalBytes(), s.M20KBlocks)
	if mem.BudgetBits > 0 {
		fmt.Fprintf(bw, "memory budget: %d bits (%.1f%% used, %d bits headroom)\n",
			mem.BudgetBits, float64(mem.TotalBits)/float64(mem.BudgetBits)*100, int64(mem.BudgetBits)-int64(mem.TotalBits))
	}
	// The backend column is as wide as the longest name on display, so
	// rows stay aligned whatever mix of schemes the switch runs.
	nameWidth := 0
	for i := range mem.Tables {
		nameWidth = max(nameWidth, len(mem.Tables[i].Backend))
	}
	for i := range mem.Tables {
		t := &mem.Tables[i]
		fmt.Fprintf(bw, "  table %d [%-*s] %7d rules  search=%-10d index=%-9d actions=%-8d total=%d bits",
			t.Table, nameWidth, t.Backend, t.Rules, t.SearchBits, t.IndexBits, t.ActionBits, t.TotalBits())
		if t.BudgetBits > 0 {
			fmt.Fprintf(bw, "  budget=%d bits", t.BudgetBits)
		}
		for _, info := range s.Tables {
			if info.ID == t.Table {
				names := make([]string, len(info.Fields))
				for j, f := range info.Fields {
					names[j] = f.String()
				}
				fmt.Fprintf(bw, "  [%s]", strings.Join(names, ","))
			}
		}
		fmt.Fprintln(bw)
	}
	writeTier(bw, "microflow cache", &s.Microflow, false)
	writeTier(bw, "megaflow tier", &s.Megaflow, true)
	fmt.Fprintf(bw, "memory pressure: level %d, %d shrinks / %d regrows (megaflow degrades first, then microflow)\n",
		s.Pressure.Level, s.Pressure.Shrinks, s.Pressure.Regrows)
	fmt.Fprintf(bw, "control plane: %d transactions, %d flow-mod commands, %d rejected\n",
		s.Tx.Txs, s.Tx.Commands, s.Tx.Rejected)
	lc := &s.Lifecycle
	fmt.Fprintf(bw, "lifecycle: %d flows live, %d idle + %d hard expiries in %d sweeps, %d flow-removed (%d dropped), %d groups\n",
		lc.Flows, lc.ExpiredIdle, lc.ExpiredHard, lc.Sweeps, lc.Removed, lc.RemovedDropped, lc.Groups)
	adv := &s.Advisor
	fmt.Fprintf(bw, "advisor: %d live migrations, %d rolled back, %d tables\n", adv.Migrations, adv.Failed, len(adv.Tables))
	for i := range adv.Tables {
		t := &adv.Tables[i]
		mode := "pinned"
		if t.Auto {
			mode = "auto"
		}
		fmt.Fprintf(bw, "  table %d [%s, %s] %d rules, %d masks, %d ranges, %d wide, %d bits\n",
			t.Table, t.Incumbent, mode, t.Rules, t.Masks, t.Ranges, t.Wide, t.MemBits)
		if t.Migrations > 0 {
			fmt.Fprintf(bw, "    migrations: %d (last reason: %s)\n", t.Migrations, t.LastReason)
		}
		for _, c := range t.Candidates {
			marker := " "
			if c.Backend == t.Incumbent {
				marker = "*"
			}
			if !c.Eligible {
				fmt.Fprintf(bw, "    %s %-10s ineligible\n", marker, c.Backend)
				continue
			}
			fmt.Fprintf(bw, "    %s %-10s score %.1f\n", marker, c.Backend, c.Score)
		}
	}
	return bw.Flush()
}

// writeTier renders one cache tier's line; the mask count is shown for
// the megaflow tier only (the microflow tier is one exact-match tuple).
func writeTier(w io.Writer, name string, st *core.TierStats, masks bool) {
	if st.Entries <= 0 {
		fmt.Fprintf(w, "%s: disabled\n", name)
		return
	}
	fmt.Fprintf(w, "%s: %d entries, ", name, st.Entries)
	if masks {
		fmt.Fprintf(w, "%d masks, ", st.Masks)
	}
	hitPct := 0.0
	if st.Hits+st.Misses > 0 {
		hitPct = float64(st.Hits) / float64(st.Hits+st.Misses) * 100
	}
	state := "armed"
	if !st.Armed {
		state = "bypassed"
	}
	fmt.Fprintf(w, "%d hits / %d misses (%.1f%% hit), %d bypassed, %s\n", st.Hits, st.Misses, hitPct, st.Bypassed, state)
}
