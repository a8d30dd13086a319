package dbms

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// freshShuffle is the permutation as a fresh source of seed seed+n deals it.
func freshShuffle(seed int64, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rand.New(rand.NewSource(seed+int64(n))).Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// TestSharedShufflerMatchesFreshSource pins the reseeded shared generator
// to the shuffle a fresh source deals, so every DBMS answer keeps its list:
// for several seeds and sizes, called in turn, and from many goroutines at
// once, where callers that find the generator busy build their own (run it
// under -race).
func TestSharedShufflerMatchesFreshSource(t *testing.T) {
	sizes := []int{0, 1, 7, 6000}
	for _, seed := range []int64{1, 2, 42} {
		e := &Engine{seed: seed}
		for round := 0; round < 2; round++ {
			for _, n := range sizes {
				if got, want := e.permutation(n), freshShuffle(seed, n); !slices.Equal(got, want) {
					t.Fatalf("seed %d n %d round %d: shared-generator permutation differs from a fresh source's", seed, n, round)
				}
			}
		}
	}
	e := &Engine{seed: 1}
	want := make(map[int][]int, len(sizes))
	for _, n := range sizes {
		want[n] = freshShuffle(1, n)
	}
	var wg sync.WaitGroup
	errs := make(chan int, 8*len(sizes))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sizes {
				n := sizes[(g+k)%len(sizes)]
				if !slices.Equal(e.permutation(n), want[n]) {
					errs <- n
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for n := range errs {
		t.Errorf("n %d: a concurrent caller's permutation differs from a fresh source's", n)
	}
}
