// Package ofmtl reproduces "Memory Cost Analysis for OpenFlow Multiple
// Table Lookup" (K. Guerra Perez, S. Scott-Hayward, X. Yang, S. Sezer,
// IEEE SOCC 2015): a multiple-table OpenFlow lookup architecture built
// from parallel single-field searches — hash LUTs for exact matching,
// partitioned multi-bit tries for longest-prefix matching, elementary
// interval tables for ranges — combined through labelled crossproducting,
// together with the hardware memory cost model and update-process
// simulation behind the paper's evaluation.
//
// The implementation lives under internal/; the binaries under cmd/
// (ofmem, flowgen, switchd, ofctl) are the public surface, and the
// Example functions of internal/core and internal/ofproto show the
// in-process and over-the-wire control plane. bench_test.go in this
// directory regenerates every table and figure of the paper as Go
// benchmarks; see README.md for build and run instructions, the package
// map, and the design of the concurrent snapshot lookup engine.
package ofmtl
