package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ofmtl/internal/filterset"
)

// checkGolden compares rep, rendered as ofmem prints it, byte for byte
// with testdata/<id>.txt. The golden files are ofmem's own output:
// `go run ./cmd/ofmem -out DIR` writes DIR/<id>.txt for every experiment,
// and a change that moves a report must regenerate them that way.
func checkGolden(t *testing.T, rep *Report) {
	t.Helper()
	var got bytes.Buffer
	if err := rep.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", rep.ID+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s report differs from testdata/%s.txt:\n--- got\n%s--- want\n%s", rep.ID, rep.ID, got.Bytes(), want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", DefaultConfig()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestIDsMatchRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 16 {
		t.Errorf("registered experiments = %d, want 16", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %s", id)
		}
		seen[id] = true
		if _, err := os.Stat(filepath.Join("testdata", id+".txt")); err != nil {
			t.Errorf("experiment %s has no golden report: %v", id, err)
		}
	}
}

func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 builds and probes six baseline classifiers")
	}
	rep, err := Run("table1", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
}

func TestTable2ReproducesRegistry(t *testing.T) {
	rep, err := Run("table2", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 15 {
		t.Fatalf("table2 rows = %d, want 15", len(rep.Rows))
	}
	if rep.Cell(0, 0) != "Ingress Port" || rep.Cell(0, 2) != "EM" {
		t.Errorf("first row = %v", rep.Rows[0])
	}
	if rep.Cell(1, 0) != "Source Ethernet" || rep.Cell(1, 2) != "LPM" {
		t.Errorf("second row = %v", rep.Rows[1])
	}
}

func TestTable3And4MatchPaperExactly(t *testing.T) {
	for _, id := range []string{"table3", "table4"} {
		rep, err := Run(id, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, rep)
		if len(rep.Rows) != 16 {
			t.Fatalf("%s rows = %d, want 16", id, len(rep.Rows))
		}
		for i, row := range rep.Rows {
			if row[len(row)-1] != "true" {
				t.Errorf("%s row %d (%s) does not match the paper", id, i, row[0])
			}
		}
	}
}

func TestFig2aShape(t *testing.T) {
	rep, err := Run("fig2a", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 16 {
		t.Fatalf("fig2a rows = %d", len(rep.Rows))
	}
	// gozb must have the largest lower trie, in the paper's 54010
	// neighbourhood (calibrated to ±15%).
	gozb := rep.FindRow("gozb")
	if gozb < 0 {
		t.Fatal("gozb row missing")
	}
	lower := rep.CellInt(gozb, 3)
	if lower < 46000 || lower > 62000 {
		t.Errorf("gozb lower trie = %d stored nodes, want ~54010 +-15%%", lower)
	}
	// For every filter, the lower trie dominates the higher trie
	// (paper: OUI structure makes high partitions repetitive).
	for i, row := range rep.Rows {
		hi, lo := rep.CellInt(i, 1), rep.CellInt(i, 3)
		if hi > lo {
			t.Errorf("%s: higher trie (%d) exceeds lower trie (%d)", row[0], hi, lo)
		}
	}
}

func TestFig2bShape(t *testing.T) {
	rep, err := Run("fig2b", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 16 {
		t.Fatalf("fig2b rows = %d", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		name := row[0]
		hi, lo := rep.CellInt(i, 1), rep.CellInt(i, 2)
		if filterset.IsOutlier(name) {
			// The paper's outliers: higher trie dominates.
			if hi <= lo {
				t.Errorf("outlier %s: higher (%d) should exceed lower (%d)", name, hi, lo)
			}
		} else if lo < hi {
			t.Errorf("regular %s: lower (%d) should be at least higher (%d)", name, lo, hi)
		}
		// Paper: below 40000 nodes even for the worst filters.
		if hi > 48000 || lo > 48000 {
			t.Errorf("%s: trie nodes (%d/%d) far beyond the paper's <40000", name, hi, lo)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rep, err := Run("fig3", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	for i, row := range rep.Rows {
		l1, l2, l3 := rep.CellFloat(i, 1), rep.CellFloat(i, 2), rep.CellFloat(i, 3)
		// L1 is fixed at 32 entries and tiny (paper: < 1 Kbit).
		if l1 >= 1.0 {
			t.Errorf("%s: L1 = %.2f Kbit, paper says < 1", row[0], l1)
		}
		// L3 dominates for exact-valued MAC filters.
		if l3 <= l2 {
			t.Errorf("%s: L3 (%.1f) should dominate L2 (%.1f)", row[0], l3, l2)
		}
	}
	// gozb worst case near the paper's 983.7 Kbit (same order).
	gozb := rep.FindRow("gozb")
	total := rep.CellFloat(gozb, 4)
	if total < 400 || total > 1600 {
		t.Errorf("gozb lower trie total = %.1f Kbit, want the paper's order (983.7)", total)
	}
}

func TestFig4Shapes(t *testing.T) {
	repA, err := Run("fig4a", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, repA)
	if len(repA.Rows) != 12 {
		t.Errorf("fig4a rows = %d, want 12 regular filters", len(repA.Rows))
	}
	for _, row := range repA.Rows {
		if filterset.IsOutlier(row[0]) {
			t.Errorf("outlier %s should not appear in fig4a", row[0])
		}
	}
	repB, err := Run("fig4b", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, repB)
	if len(repB.Rows) != 8 {
		t.Errorf("fig4b rows = %d, want 4 outliers x 2 tries", len(repB.Rows))
	}
	// For each outlier, the higher trie total must exceed the lower.
	totals := map[string]map[string]float64{}
	for i, row := range repB.Rows {
		name, trie := row[0], row[1]
		if totals[name] == nil {
			totals[name] = map[string]float64{}
		}
		totals[name][trie] = repB.CellFloat(i, 5)
	}
	for name, m := range totals {
		if m["higher"] <= m["lower"] {
			t.Errorf("outlier %s: higher trie (%.1f) should exceed lower (%.1f)", name, m["higher"], m["lower"])
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rep, err := Run("fig5", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 32 {
		t.Fatalf("fig5 rows = %d, want 32 (16 filters x 2 apps)", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		orig, opt := rep.CellFloat(i, 2), rep.CellFloat(i, 3)
		if opt >= orig {
			t.Errorf("%s/%s: label method (%.0f) should beat original (%.0f)", row[0], row[1], opt, orig)
		}
		red := rep.CellFloat(i, 4)
		if red <= 0 || red >= 100 {
			t.Errorf("%s/%s: reduction %.2f%% out of range", row[0], row[1], red)
		}
	}
	// The average lands in the paper's band.
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "average reduction") {
			found = true
		}
	}
	if !found {
		t.Error("fig5 should note the average reduction")
	}
}

func TestReportRendering(t *testing.T) {
	rep, err := Run("table2", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "VLAN ID") {
		t.Error("text rendering missing data")
	}
	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(csvBuf.String(), "\n")
	if lines != 16 { // header + 15 rows
		t.Errorf("CSV lines = %d, want 16", lines)
	}
}

func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline builds the 192k-rule prototype")
	}
	rep, err := Run("headline", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	mbtRow := rep.FindRow("multi-bit tries (Ethernet + IPv4)")
	if mbtRow < 0 {
		t.Fatal("MBT row missing")
	}
	mbtMbit := rep.CellFloat(mbtRow, 2)
	if mbtMbit < 1.5 || mbtMbit > 3.2 {
		t.Errorf("MBT share = %.2f Mbit, want ~2 (paper)", mbtMbit)
	}
	totalRow := rep.FindRow("TOTAL (paper accounting: tries+LUTs+action rows)")
	if totalRow < 0 {
		t.Fatal("paper-accounting total row missing")
	}
	total := rep.CellFloat(totalRow, 2)
	if total < 3.5 || total > 8 {
		t.Errorf("paper-accounting total = %.2f Mbit, want ~5 (paper)", total)
	}
}

func TestAblationStrides(t *testing.T) {
	rep, err := Run("ablation-strides", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	// The single-level {16} configuration must be the memory worst case
	// (full 2^16 expansion), and the paper's {5,5,6} must beat it hugely.
	flat := rep.FindRow("{16}")
	paper := rep.FindRow("{5,5,6}")
	if flat < 0 || paper < 0 {
		t.Fatal("expected stride rows missing")
	}
	if rep.CellInt(flat, 2) != 65536 {
		t.Errorf("{16} stored nodes = %d, want 65536", rep.CellInt(flat, 2))
	}
	if rep.CellFloat(paper, 3) >= rep.CellFloat(flat, 3) {
		t.Error("3-level configuration should use less memory than flat expansion")
	}
	// Deeper configurations trade lookup stages for memory.
	deep := rep.FindRow("{2,2,2,2,2,2,2,2}")
	if rep.CellInt(deep, 4) <= rep.CellInt(paper, 4) {
		t.Error("8-level trie should have more lookup stages")
	}
}

func TestExtScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep builds large pipelines")
	}
	rep, err := Run("ext-scaling", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 5 {
		t.Fatalf("scaling rows = %d", len(rep.Rows))
	}
	// Architecture memory grows monotonically with rules, and the TCAM
	// overhead ratio grows with table size (label sharing amortises).
	for i := 1; i < len(rep.Rows); i++ {
		if rep.CellFloat(i, 4) <= rep.CellFloat(i-1, 4) {
			t.Errorf("row %d: architecture memory not monotone", i)
		}
	}
	first, last := rep.CellFloat(0, 6), rep.CellFloat(len(rep.Rows)-1, 6)
	if last <= first {
		t.Errorf("TCAM/architecture ratio should grow with table size: %.2f -> %.2f", first, last)
	}
}

func TestAblationLUTWays(t *testing.T) {
	rep, err := Run("ablation-lutways", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	if len(rep.Rows) != 4 {
		t.Fatalf("lutways rows = %d", len(rep.Rows))
	}
	// Overflow decreases with associativity; by 8-way it is below 1% of
	// the population.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.CellInt(i, 3) > rep.CellInt(i-1, 3) {
			t.Errorf("overflow not monotone non-increasing at row %d", i)
		}
	}
	entries := rep.CellInt(0, 1)
	if over := rep.CellInt(len(rep.Rows)-1, 3); over*100 > entries {
		t.Errorf("8-way overflow = %d of %d entries, want < 1%%", over, entries)
	}
}

func TestExtBaselineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline sweep builds several classifiers")
	}
	rep, err := Run("ext-baseline-sweep", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	// Every algorithm's memory grows with the rule count.
	mem := map[string][]float64{}
	for i, row := range rep.Rows {
		mem[row[1]] = append(mem[row[1]], rep.CellFloat(i, 2))
	}
	for name, series := range mem {
		for i := 1; i < len(series); i++ {
			if series[i] <= series[i-1] {
				t.Errorf("%s: memory not monotone across sizes: %v", name, series)
			}
		}
	}
}

func TestAblationLabel(t *testing.T) {
	rep, err := Run("ablation-label", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rep)
	for i, row := range rep.Rows {
		naive, labelled := rep.CellInt(i, 2), rep.CellInt(i, 3)
		if labelled >= naive {
			t.Errorf("%s: labelled entries (%d) should undercut naive (%d)", row[0], labelled, naive)
		}
		if rep.CellFloat(i, 5) >= rep.CellFloat(i, 4) {
			t.Errorf("%s: labelled Kbits should undercut naive", row[0])
		}
	}
}
