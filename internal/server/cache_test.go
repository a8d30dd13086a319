package server

import (
	"fmt"
	"sync"
	"testing"

	"tqp/internal/core"
)

func prep(sql string) *core.Prepared { return &core.Prepared{SQL: sql} }

// TestPlanCacheLRU pins the eviction discipline: least recently *used*
// falls out first, gets refresh recency, overwrites are not evictions.
func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache[*core.Prepared](2)
	c.Put("a", prep("a"))
	c.Put("b", prep("b"))
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatal("a must hit")
	}
	c.Put("c", prep("c")) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Fatal("b must have been evicted")
	}
	_, okA := c.Get("a")
	_, okC := c.Get("c")
	if !okA || !okC {
		t.Fatal("a and c must survive")
	}
	c.Put("a", prep("a2")) // overwrite: no eviction
	if got, ok := c.Get("a"); !ok || got.SQL != "a2" {
		t.Fatal("overwrite must refresh the entry")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// 5 hits (a, a, c, a) — wait: a,b-miss... count directly:
	// gets: a hit, b miss, a hit, c hit, a hit = 4 hits 1 miss.
	if st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
}

// TestPlanCacheDisabled pins the cold-cache mode: capacity 0 never stores,
// every lookup misses.
func TestPlanCacheDisabled(t *testing.T) {
	c := NewPlanCache[*core.Prepared](0)
	c.Put("a", prep("a"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache must miss")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines; run
// under -race this is the data-race guard for the serving path's hottest
// shared structure.
func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache[*core.Prepared](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				if _, ok := c.Get(key); !ok {
					c.Put(key, prep(key))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 8 {
		t.Fatalf("capacity breached: %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("vacuous concurrency test: %+v", st)
	}
}
