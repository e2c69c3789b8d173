// Package sfcache is the serving stack's one keyed cache: a bounded,
// TTL'd, single-flight map whose values a caller-supplied function
// computes, at most one call per key at a time. pyserve's exactly-once
// dedup layer and limits memo, the program store and the router's
// program memory are all instances of it.
//
// Every instance runs the same policy. TTL and capacity are its only
// parameters:
//
//   - Resolved entries are kept in LRU order; at capacity the least
//     recently used one is evicted.
//   - An entry's TTL counts from its last use: a hit, or the moment its
//     value resolved. Expired entries are swept lazily, on access.
//   - Pending entries (their fn still running) are never evicted, never
//     expire and are never deleted.
//   - When fn says "don't keep" (a shed job, a failed compile), the key is
//     released and its waiters consult again: one of them becomes the
//     next caller of fn, so every release lets one waiter through.
//   - When the cache is full and every entry is pending, fn runs without
//     storing its result. Correctness degrades to per-call work for that
//     key, never to a wrong answer.
package sfcache

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// entry is one key's lifecycle: pending while its fn runs, then either
// resolved (listed in the LRU order) or removed. done is closed exactly
// once, when fn returns.
type entry[K comparable, V any] struct {
	key  K
	val  V
	done chan struct{}
	used time.Time     // last use; set at resolution and on every hit
	elem *list.Element // position in the LRU order; nil while pending
}

// Cache is a TTL + capacity + single-flight cache. Obtain one from New.
type Cache[K comparable, V any] struct {
	ttl time.Duration
	cap int
	now func() time.Time

	mu      sync.Mutex
	entries map[K]*entry[K, V]
	// lru lists resolved entries, least recently used first. Since every
	// entry shares one TTL, it is also expiry order.
	lru   *list.List
	stats Stats
}

// Stats is a point-in-time view of a cache's lifetime counters.
type Stats struct {
	Hits        uint64 // calls answered from a resolved entry, waiters included
	Misses      uint64 // calls that found none: every fn run and every empty Get
	Waits       uint64 // waits behind another caller's pending entry
	Stored      uint64 // fn results kept
	Evictions   uint64 // capacity evictions
	Expirations uint64 // TTL sweeps
	Entries     int    // current population, pending entries included
}

// New builds a cache. ttl and capacity must be positive; now is the
// clock (nil means time.Now).
func New[K comparable, V any](ttl time.Duration, capacity int, now func() time.Time) *Cache[K, V] {
	if now == nil {
		now = time.Now
	}
	return &Cache[K, V]{
		ttl:     ttl,
		cap:     capacity,
		now:     now,
		entries: make(map[K]*entry[K, V]),
		lru:     list.New(),
	}
}

// Do returns key's value, calling fn to compute it when no entry is
// resolved. Concurrent calls for one key single-flight: one runs fn, the
// rest wait for it (until ctx ends, which returns ctx.Err()). fn's result
// is stored when it reports keep and no error. hit reports that the
// value came from the cache rather than from this call's fn.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (v V, keep bool, err error)) (V, bool, error) {
	v, hit, e, err := c.acquire(ctx, key, true)
	if hit || err != nil {
		return v, hit, err
	}
	if e == nil {
		v, _, err = fn()
		return v, false, err
	}
	keep := false
	// Deferred so a panicking fn still releases its waiters.
	defer func() { c.resolve(e, v, keep && err == nil) }()
	v, keep, err = fn()
	return v, false, err
}

// Get returns key's resolved value, waiting behind a pending entry. A
// hit is a use: it refreshes the entry's TTL and LRU position.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	v, hit, _, _ := c.acquire(context.Background(), key, false)
	return v, hit
}

// Update passes key's resolved value to fn under the cache lock and
// stores fn's result when fn returns true; returning false makes Update
// a plain read. It is not a use: the TTL, the LRU position and the
// counters stay as they are. Reports whether key had a resolved value.
// fn must not call back into the cache.
func (c *Cache[K, V]) Update(key K, fn func(V) (V, bool)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.now())
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		return false
	}
	if v, store := fn(e.val); store {
		e.val = v
	}
	return true
}

// Delete drops key's resolved entry and reports whether there was one. A
// pending entry is left to resolve.
func (c *Cache[K, V]) Delete(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.now())
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		return false
	}
	c.removeLocked(e)
	return true
}

// Stats returns the cache's lifetime counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	return st
}

// acquire consults key: a resolved entry is a hit, a pending one is
// waited on. Otherwise, when claim is set, the caller gets a fresh
// pending entry it must resolve, or nil when the cache is full of
// pending entries and fn must run unstored.
func (c *Cache[K, V]) acquire(ctx context.Context, key K, claim bool) (V, bool, *entry[K, V], error) {
	var v V
	for {
		c.mu.Lock()
		now := c.now()
		c.sweepLocked(now)
		e, ok := c.entries[key]
		if ok && e.elem != nil {
			e.used = now
			c.lru.MoveToBack(e.elem)
			c.stats.Hits++
			v = e.val
			c.mu.Unlock()
			return v, true, nil, nil
		}
		if ok {
			c.stats.Waits++
			c.mu.Unlock()
			select {
			case <-e.done:
				continue
			case <-ctx.Done():
				return v, false, nil, ctx.Err()
			}
		}
		c.stats.Misses++
		if !claim || (len(c.entries) >= c.cap && !c.evictLocked()) {
			c.mu.Unlock()
			return v, false, nil, nil
		}
		e = &entry[K, V]{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		return v, false, e, nil
	}
}

// resolve completes an entry claimed by acquire: a kept value is stored
// as the most recently used entry, anything else releases the key.
// Waiters are woken either way.
func (c *Cache[K, V]) resolve(e *entry[K, V], v V, keep bool) {
	c.mu.Lock()
	if keep {
		e.val = v
		e.used = c.now()
		e.elem = c.lru.PushBack(e)
		c.stats.Stored++
	} else {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

// sweepLocked drops entries whose TTL elapsed since their last use,
// least recently used first.
func (c *Cache[K, V]) sweepLocked(now time.Time) {
	for el := c.lru.Front(); el != nil; el = c.lru.Front() {
		e := el.Value.(*entry[K, V])
		if now.Sub(e.used) < c.ttl {
			return
		}
		c.removeLocked(e)
		c.stats.Expirations++
	}
}

// evictLocked drops the least recently used resolved entry; false means
// every entry is pending.
func (c *Cache[K, V]) evictLocked() bool {
	el := c.lru.Front()
	if el == nil {
		return false
	}
	c.removeLocked(el.Value.(*entry[K, V]))
	c.stats.Evictions++
	return true
}

func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}
