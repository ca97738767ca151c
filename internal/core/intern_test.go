package core

import (
	"sync"
	"testing"

	"ofmtl/internal/openflow"
)

// TestInternConcurrentFirstAppearance races first appearances in the
// outcome table: 8 goroutines intern overlapping runs of distinct
// outcomes at once, each from scratch slices it rewrites for every
// outcome, as a walk does. Every distinct outcome must resolve to one
// pointer, whose content equals the input.
func TestInternConcurrentFirstAppearance(t *testing.T) {
	const (
		goroutines = 8
		distinct   = 256
		run        = 128 // each outcome is interned by run/(distinct/goroutines) = 4 goroutines
	)
	// outcome writes outcome i into r, on the given scratch slices.
	outcome := func(i int, r *Result, visited []openflow.TableID, outs []uint32) {
		*r = Result{Matched: i&1 != 0, SentToController: i&2 != 0, Dropped: i&4 != 0, MatchedTables: i % 5}
		for k := 0; k <= i%9; k++ {
			visited = append(visited, openflow.TableID(i+k))
		}
		for k := 0; k < i%4; k++ {
			outs = append(outs, uint32(i*7+k)|uint32(k&1)<<31)
		}
		r.TablesVisited, r.Outputs = visited, outs
	}
	var tab outcomeTable
	got := make([][distinct]*Result, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			visited, outs := make([]openflow.TableID, 0, 16), make([]uint32, 0, 16)
			var r Result
			<-start
			for k := 0; k < run; k++ {
				i := (g*distinct/goroutines + k) % distinct
				outcome(i, &r, visited, outs)
				got[g][i] = tab.intern(&r)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	var canon [distinct]*Result
	var want Result
	for g := range got {
		for i, rp := range got[g] {
			if rp == nil {
				continue
			}
			outcome(i, &want, nil, nil)
			if !resultsEqual(rp, &want) {
				t.Fatalf("outcome %d interned as %+v, want %+v", i, *rp, want)
			}
			if canon[i] == nil {
				canon[i] = rp
			} else if rp != canon[i] {
				t.Fatalf("outcome %d resolved to two pointers", i)
			}
		}
	}
	for i, rp := range canon {
		if rp == nil {
			t.Fatalf("outcome %d was never interned", i)
		}
	}
}
