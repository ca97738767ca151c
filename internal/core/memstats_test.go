package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ofmtl/internal/cow"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// buildBackendPipeline returns a single-table pipeline pinned to the
// given backend: the 5-field ACL table for the generic schemes, the
// single-LPM-field table for the shape-restricted dir24.
func buildBackendPipeline(t *testing.T, kind string) *Pipeline {
	t.Helper()
	p := NewPipeline()
	cfg := backendTableConfig(kind)
	cfg.Backend = kind
	if _, err := p.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	return p
}

// randomCmds draws a deterministic flow-mod command history over a fixed
// rule pool shaped for the given backend's table: adds (exercising
// replace), strict deletes and non-strict modifies.
func randomCmds(kind string, seed uint64, n int) []FlowCmd {
	rng := xrand.New(seed)
	var pool []*openflow.FlowEntry
	for i := 0; i < 48; i++ {
		pool = append(pool, backendEntry(kind, rng, 1+rng.Intn(6)))
	}
	var cmds []FlowCmd
	for len(cmds) < n {
		e := pool[rng.Intn(len(pool))]
		switch rng.Intn(5) {
		case 0, 1, 2:
			cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: 0, Entry: *e})
		case 3:
			mod := e.Clone()
			mod.Instructions = []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(1 + rng.Intn(64)))),
			}
			cmds = append(cmds, FlowCmd{Op: CmdModify, Table: 0, Entry: *mod})
		default:
			cmds = append(cmds, FlowCmd{Op: CmdDeleteStrict, Table: 0, Entry: *e})
		}
	}
	return cmds
}

// applyCmds commits the history in batches of 16.
func applyCmds(t *testing.T, p *Pipeline, cmds []FlowCmd) {
	t.Helper()
	for off := 0; off < len(cmds); off += 16 {
		end := off + 16
		if end > len(cmds) {
			end = len(cmds)
		}
		tx := p.Begin()
		for _, c := range cmds[off:end] {
			tx.FlowMod(c)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatalf("commit [%d:%d]: %v", off, end, err)
		}
	}
}

// TestMemoryStatsNoDrift is the accounting invariant: after N random
// transaction commits, the incrementally maintained per-backend counters
// must equal what a from-scratch pipeline replaying the same history
// reports — any missed increment or decrement shows up as drift.
func TestMemoryStatsNoDrift(t *testing.T) {
	for _, kind := range BackendKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			cmds := randomCmds(kind, 60221, 600)
			p := buildBackendPipeline(t, kind)
			applyCmds(t, p, cmds)

			fresh := buildBackendPipeline(t, kind)
			applyCmds(t, fresh, cmds)

			got, want := p.MemoryStats(), fresh.MemoryStats()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("accounting drift after churn:\n got  %+v\n want %+v", got, want)
			}
			if got.TotalBits == 0 {
				t.Error("degenerate accounting: 0 bits after churn")
			}
		})
	}
}

// TestMemoryStatsMatchesReport pins the two memory surfaces together: the
// lock-free per-table byte counters and the component-level MemoryReport
// must agree exactly, per table and in total, for every backend.
func TestMemoryStatsMatchesReport(t *testing.T) {
	for _, kind := range BackendKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p := buildBackendPipeline(t, kind)
			applyCmds(t, p, randomCmds(kind, 88, 300))

			stats := p.MemoryStats()
			report := p.MemoryReport()
			if int(stats.TotalBits) != report.TotalBits {
				t.Errorf("MemoryStats total = %d bits, MemoryReport total = %d bits", stats.TotalBits, report.TotalBits)
			}
			// Per-table: sum the report components under each table prefix.
			perTable := make(map[string]int)
			for _, c := range report.Components {
				name := c.Name
				if i := strings.IndexByte(name, '/'); i >= 0 {
					name = name[:i]
				}
				perTable[name] += c.Bits
			}
			for _, tm := range stats.Tables {
				prefix := fmt.Sprintf("table%d", tm.Table)
				if got := perTable[prefix]; got != int(tm.TotalBits()) {
					t.Errorf("table %d: stats=%d bits, report components=%d bits", tm.Table, tm.TotalBits(), got)
				}
				if tm.Backend != kind {
					t.Errorf("published backend = %q, want %q", tm.Backend, kind)
				}
			}
		})
	}
}

// TestMemoryStatsLockFree proves the read path never touches the pipeline
// write lock: with p.mu held, repeated MemoryStats reads must still
// complete, and agree.
func TestMemoryStatsLockFree(t *testing.T) {
	p := buildBackendPipeline(t, BackendMBT)
	applyCmds(t, p, randomCmds(BackendMBT, 7, 64))
	p.Refresh() // publish the snapshot so MemoryReport below has no rebuild to do

	p.mu.Lock()
	done := make(chan MemoryStats, 2)
	go func() {
		done <- p.MemoryStats()
		done <- p.MemoryStats()
	}()
	var got []MemoryStats
	for i := 0; i < 2; i++ {
		select {
		case st := <-done:
			got = append(got, st)
		case <-time.After(5 * time.Second):
			p.mu.Unlock()
			t.Fatal("memory-stats read blocked on the pipeline write lock")
		}
	}
	p.mu.Unlock()
	if got[0].TotalBits == 0 || !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("inconsistent lock-free reads: %+v vs %+v", got[0], got[1])
	}

	// MemoryReport's walk likewise runs over the published snapshot
	// without holding the lock.
	p.mu.Lock()
	reportDone := make(chan int, 1)
	go func() { reportDone <- p.MemoryReport().TotalBits }()
	select {
	case bits := <-reportDone:
		if bits != int(got[0].TotalBits) {
			t.Errorf("report under lock = %d bits, stats = %d bits", bits, got[0].TotalBits)
		}
	case <-time.After(5 * time.Second):
		t.Error("MemoryReport walk blocked on the pipeline write lock")
	}
	p.mu.Unlock()
}

// TestMemoryStatsUnderChurn reads the lock-free stats concurrently with
// transaction commits (run under -race in CI): every observed view must
// be internally consistent — the total equal to the sum of its tables —
// and never regress to an empty table list.
func TestMemoryStatsUnderChurn(t *testing.T) {
	cow.SealForTest(t)
	for _, kind := range BackendKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			p := buildBackendPipeline(t, kind)
			cmds := randomCmds(kind, 13, 800)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						st := p.MemoryStats()
						var sum uint64
						for _, tm := range st.Tables {
							sum += tm.TotalBits()
						}
						if sum != st.TotalBits {
							t.Errorf("torn stats: total=%d, sum=%d", st.TotalBits, sum)
							return
						}
						if len(st.Tables) != 1 {
							t.Errorf("stats lost the table: %+v", st)
							return
						}
					}
				}()
			}
			applyCmds(t, p, cmds)
			close(stop)
			wg.Wait()
		})
	}
}
