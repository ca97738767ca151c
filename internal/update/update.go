// Package update models the controller-side update process of Section
// V.B of the paper. Two "update files" characterise each algorithm and
// table block: the OPTIMIZED file applies the label method (one record per
// unique field value), while the ORIGINAL file carries one record per
// rule-field occurrence (the rule-replication behaviour of algorithms
// without labelling). A Plan counts a file's records, and Cycles prices
// them at two clock cycles per record — the index is calculated in the
// first cycle and the data stored in the second — exactly the cost model
// the paper states.
//
// Fig. 5 of the paper compares the two files per filter; the label method
// saves 56.92 % of update cycles on average over the Stanford filters.
package update

import (
	"fmt"

	"ofmtl/internal/bitops"
	"ofmtl/internal/filterset"
	"ofmtl/internal/mbt"
)

// CyclesPerRecord is the paper's update cost: one cycle to calculate the
// index, one to store the data.
const CyclesPerRecord = 2

// Plan is one update file: the number of records that must be replayed
// into the algorithm structures (trie nodes, LUT rows) and into the table
// blocks (index-calculation and action rows).
type Plan struct {
	Name             string
	AlgorithmRecords int
	TableRecords     int
}

// Records returns the total record count.
func (p Plan) Records() int { return p.AlgorithmRecords + p.TableRecords }

// Cycles returns the clock cycles spent applying the plan's records.
func Cycles(p Plan) uint64 {
	return uint64(p.Records()) * CyclesPerRecord
}

// trieInsertRecords returns the number of update records writing one
// prefix into a 16-bit multi-bit trie with the given strides: one record
// per level descended (child-pointer setup) plus one per expanded slot at
// the terminal level (controlled prefix expansion).
func trieInsertRecords(plen int, strides []int) int {
	if plen < 0 {
		plen = 0
	}
	cum := 0
	for lvl, s := range strides {
		if plen <= cum+s {
			return lvl + (1 << uint(cum+s-plen))
		}
		cum += s
	}
	// plen == full width: terminal level is the last.
	last := len(strides) - 1
	return last + 1
}

// macUniqueParts surveys a MAC filter's unique partition values.
func macUniqueParts(f *filterset.MACFilter) (vlans int, parts [3]int) {
	vs := make(map[uint16]struct{})
	ps := [3]map[uint16]struct{}{{}, {}, {}}
	for _, r := range f.Rules {
		vs[r.VLAN] = struct{}{}
		for i := 0; i < 3; i++ {
			ps[i][bitops.Partition16(r.EthDst, 48, i)] = struct{}{}
		}
	}
	for i := 0; i < 3; i++ {
		parts[i] = len(ps[i])
	}
	return len(vs), parts
}

// PlanMACOptimized builds the label-method update file for a MAC filter:
// one LUT record per unique VLAN, one trie insertion per unique Ethernet
// partition value, and the per-rule table records (index calculation plus
// action row) that every architecture pays.
func PlanMACOptimized(f *filterset.MACFilter) Plan {
	strides := mbt.DefaultStrides16
	vlans, parts := macUniqueParts(f)
	alg := vlans // exact-match LUT rows
	exact := trieInsertRecords(16, strides)
	for _, n := range parts {
		alg += n * exact
	}
	return Plan{
		Name:             f.Name + "/mac/optimized",
		AlgorithmRecords: alg,
		TableRecords:     tableRecordsMAC(f, vlans),
	}
}

// PlanMACOriginal builds the update file without the label method: every
// rule re-writes its own copies of every field value.
func PlanMACOriginal(f *filterset.MACFilter) Plan {
	strides := mbt.DefaultStrides16
	vlans, _ := macUniqueParts(f)
	exact := trieInsertRecords(16, strides)
	alg := len(f.Rules) * (1 + 3*exact) // VLAN row + three partition tries
	return Plan{
		Name:             f.Name + "/mac/original",
		AlgorithmRecords: alg,
		TableRecords:     tableRecordsMAC(f, vlans),
	}
}

// tableRecordsMAC counts the index-calculation and action-table records of
// the two-table MAC pipeline: the first table holds one combination and
// one action row per unique VLAN, the second one of each per rule.
func tableRecordsMAC(f *filterset.MACFilter, vlans int) int {
	return 2*vlans + 2*len(f.Rules)
}

// routeUniqueParts surveys a routing filter's unique values: ports, and
// the unique (value, plen) pairs of each IPv4 partition.
func routeUniqueParts(f *filterset.RouteFilter) (ports int, hi, lo map[[2]int]int) {
	pset := make(map[uint32]struct{})
	hi = make(map[[2]int]int)
	lo = make(map[[2]int]int)
	for _, r := range f.Rules {
		pset[r.InPort] = struct{}{}
		for _, p := range bitops.SplitPrefix16(uint64(r.Prefix), 32, r.PrefixLen) {
			k := [2]int{int(p.Value), p.Len}
			if p.Index == 0 {
				hi[k]++
			} else {
				lo[k]++
			}
		}
	}
	return len(pset), hi, lo
}

// PlanRouteOptimized builds the label-method update file for a routing
// filter.
func PlanRouteOptimized(f *filterset.RouteFilter) Plan {
	strides := mbt.DefaultStrides16
	ports, hi, lo := routeUniqueParts(f)
	alg := ports
	for k := range hi {
		alg += trieInsertRecords(k[1], strides)
	}
	for k := range lo {
		alg += trieInsertRecords(k[1], strides)
	}
	return Plan{
		Name:             f.Name + "/route/optimized",
		AlgorithmRecords: alg,
		TableRecords:     tableRecordsRoute(f, ports),
	}
}

// PlanRouteOriginal builds the routing update file without the label
// method.
func PlanRouteOriginal(f *filterset.RouteFilter) Plan {
	strides := mbt.DefaultStrides16
	ports, _, _ := routeUniqueParts(f)
	alg := 0
	for _, r := range f.Rules {
		alg++ // port LUT row
		for _, p := range bitops.SplitPrefix16(uint64(r.Prefix), 32, r.PrefixLen) {
			alg += trieInsertRecords(p.Len, strides)
		}
	}
	return Plan{
		Name:             f.Name + "/route/original",
		AlgorithmRecords: alg,
		TableRecords:     tableRecordsRoute(f, ports),
	}
}

// tableRecordsRoute counts table records for the two-table routing
// pipeline.
func tableRecordsRoute(f *filterset.RouteFilter, ports int) int {
	return 2*ports + 2*len(f.Rules)
}

// FilterComparison is one Fig. 5 measurement: the update cycles of the
// original and optimized files for one filter and application.
type FilterComparison struct {
	Filter    string
	App       filterset.App
	Original  uint64
	Optimized uint64
}

// ReductionPct returns the percentage of cycles saved.
func (c FilterComparison) ReductionPct() float64 {
	if c.Original == 0 {
		return 0
	}
	return 100 * (1 - float64(c.Optimized)/float64(c.Original))
}

// CompareMAC measures one MAC filter.
func CompareMAC(f *filterset.MACFilter) FilterComparison {
	return FilterComparison{
		Filter:    f.Name,
		App:       filterset.MACLearning,
		Original:  Cycles(PlanMACOriginal(f)),
		Optimized: Cycles(PlanMACOptimized(f)),
	}
}

// CompareRoute measures one routing filter.
func CompareRoute(f *filterset.RouteFilter) FilterComparison {
	return FilterComparison{
		Filter:    f.Name,
		App:       filterset.Routing,
		Original:  Cycles(PlanRouteOriginal(f)),
		Optimized: Cycles(PlanRouteOptimized(f)),
	}
}

// AverageReductionPct averages the per-filter reductions, the quantity the
// paper reports as 56.92 %.
func AverageReductionPct(cs []FilterComparison) float64 {
	if len(cs) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cs {
		sum += c.ReductionPct()
	}
	return sum / float64(len(cs))
}

// String renders a comparison row.
func (c FilterComparison) String() string {
	return fmt.Sprintf("%s/%s: original=%d optimized=%d (-%.2f%%)",
		c.Filter, c.App, c.Original, c.Optimized, c.ReductionPct())
}
