package server

import (
	"container/list"
	"sync"
)

// CacheStats is a point-in-time snapshot of the plan cache's counters.
type CacheStats struct {
	// Hits and Misses count lookups; Evictions counts entries dropped by
	// the LRU bound (an overwrite of an existing key is not an eviction).
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Entries is the current entry count; Capacity the LRU bound (0 when
	// caching is disabled).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// PlanCache is the shared statement→physical-plan cache: an LRU over
// prepared plans keyed by PlanKey (normalized statement text, catalog
// fingerprint, engine spec name). The server caches *core.Prepared, the
// coordinator the prepared plan with its shard split; either way the cached
// values are immutable and safe to execute from any number of queries
// concurrently, so a hit skips parsing and beam enumeration outright. A
// capacity of zero disables caching — every lookup misses — which the
// throughput benchmark uses as its cold-cache leg.
type PlanCache[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	byKey     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry is one LRU element.
type cacheEntry[V any] struct {
	key string
	val V
}

// NewPlanCache returns a cache bounded to capacity entries; capacity <= 0
// disables caching.
func NewPlanCache[V any](capacity int) *PlanCache[V] {
	if capacity < 0 {
		capacity = 0
	}
	return &PlanCache[V]{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// PlanKey composes the cache key. All three components matter: the
// fingerprint invalidates plans when the catalog changes, the engine spec
// name separates plans costed for different engines (a plan chosen for the
// parallel engine's cost shapes is not the plan for the reference
// evaluator), and the normalized statement folds trivial text variants of
// one statement onto one entry.
func PlanKey(fingerprint, engine, sql string) string {
	return fingerprint + "\x1f" + engine + "\x1f" + NormalizeSQL(sql)
}

// Get returns the cached value for key, promoting it to most recently
// used; ok is false on a miss.
func (c *PlanCache[V]) Get(key string) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return val, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Put stores val under key, evicting from the LRU tail past capacity.
// Concurrent misses on one key may both plan and both put; the second put
// simply refreshes the entry — duplicate planning work, never a wrong
// result.
func (c *PlanCache[V]) Put(key string, val V) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*cacheEntry[V]).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *PlanCache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
}
