// Package lru is the sharded LRU engine under both node-local cache
// tiers, storage.NVMe and memtier.Tier.
//
// Keys hash onto a power-of-two number of shards, each with its own
// mutex, map and intrusive LRU list, so concurrent requests contend
// only on same-shard keys. Capacity is one global atomic byte budget,
// so the byte bound is the same as an unsharded cache's; only victim
// order becomes per-shard LRU, approximate globally (one shard keeps
// exact LRU order).
//
// The budget is never overshot, even transiently: an insert makes room
// first and publishes second. It reserves its bytes with a CAS on the
// global counter, evicting LRU entries — its own shard first, then the
// others, one shard lock at a time — until the reservation fits, and
// only then links the entry. Evicted values go back to the caller,
// which handles them outside every lock.
package lru

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/xhash"
)

// DefaultShards is the shard count a non-positive request selects:
// enough to spread a busy node's request goroutines (one per in-flight
// RPC) across independent locks without bloating the footprint.
const DefaultShards = 16

// shardSeed decorrelates the shard-pick hash from the consistent-hash
// ring's key hash so ring placement does not concentrate a node's keys
// onto few shards.
const shardSeed = 0x9E3779B97F4A7C15

// Item is a key, its value and the value's byte size: a batch member
// on the way in, an evicted entry on the way out.
type Item[V any] struct {
	Key  string
	Val  V
	Size int64
}

// entry is a resident item, linked into its shard's LRU ring.
type entry[V any] struct {
	Item[V]
	prev, next *entry[V]
}

type shard[V any] struct {
	mu    sync.Mutex
	items map[string]*entry[V]
	root  entry[V] // ring sentinel: root.next is most recent, root.prev least
	// bytes/objects mirror the shard's content for lock-free telemetry
	// reads; they are written under mu but loaded without it.
	bytes   atomic.Int64
	objects atomic.Int64
	_       [64]byte // keep neighbouring shards' locks off one cache line
}

// Shards is the sharded LRU cache. The zero value is not usable; use New.
type Shards[V any] struct {
	capacity int64
	used     atomic.Int64
	shards   []shard[V]
	mask     uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	spills    atomic.Int64 // evictions outside the inserting shard
}

// New creates a cache with the given byte capacity (<= 0 = unbounded)
// and shard count, rounded up to a power of two; non-positive selects
// DefaultShards. One shard gives exact global LRU order.
func New[V any](capacity int64, shards int) *Shards[V] {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Shards[V]{capacity: capacity, shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].reset()
	}
	return s
}

func (sh *shard[V]) reset() {
	sh.items = make(map[string]*entry[V])
	sh.root.prev, sh.root.next = &sh.root, &sh.root
}

func (sh *shard[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &sh.root, sh.root.next
	e.next.prev = e
	sh.root.next = e
}

func (sh *shard[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// remove unlinks e from sh (lock held) and its mirrors; the caller
// settles the global budget.
func (sh *shard[V]) remove(e *entry[V]) {
	delete(sh.items, e.Key)
	sh.unlink(e)
	sh.bytes.Add(-e.Size)
	sh.objects.Add(-1)
}

func (s *Shards[V]) index(key string) int {
	return int(xhash.XXH64String(key, shardSeed) & s.mask)
}

// Put makes key resident with value v of the given size, returning the
// value it replaces, if any. size must not exceed a bounded capacity.
// Entries evicted to make room are appended to *evicted (nil discards
// them); the new value is never among them.
func (s *Shards[V]) Put(key string, v V, size int64, evicted *[]Item[V]) (old V, replaced bool) {
	if s.capacity > 0 && size > s.capacity {
		panic("lru: Put larger than capacity")
	}
	home := s.index(key)
	s.reserve(size, home, evicted)
	prev, replaced := s.publish(home, Item[V]{key, v, size})
	return prev.Val, replaced
}

// PutBatch makes every item resident. Each size must not exceed a
// bounded capacity. It reserves the whole batch before publishing any
// member, so no member can evict a batch-mate. A batch larger than the
// whole capacity cannot all stay: it degrades to a run of Puts, in
// which the newest insert survives. Values the batch replaces are
// dropped; evicted entries go to *evicted as for Put.
func (s *Shards[V]) PutBatch(items []Item[V], evicted *[]Item[V]) {
	var total int64
	for _, it := range items {
		total += it.Size
	}
	if s.capacity > 0 && total > s.capacity {
		for _, it := range items {
			s.Put(it.Key, it.Val, it.Size, evicted)
		}
		return
	}
	if len(items) == 0 {
		return
	}
	s.reserve(total, s.index(items[0].Key), evicted)
	for _, it := range items {
		s.publish(s.index(it.Key), it)
	}
}

// reserve claims n bytes of the global budget, evicting LRU entries —
// from shard home first, then from the others, one lock at a time —
// until the claim fits. The caller holds no lock.
func (s *Shards[V]) reserve(n int64, home int, evicted *[]Item[V]) {
	if s.capacity <= 0 {
		s.used.Add(n)
		return
	}
	for i := 0; !s.claim(n); i++ {
		off := i & int(s.mask)
		if i > 0 && off == 0 {
			// A full pass left the budget short: the rest is held by
			// reservations in flight, which publish without waiting.
			runtime.Gosched()
		}
		sh := &s.shards[(home+off)&int(s.mask)]
		sh.mu.Lock()
		for s.capacity-s.used.Load() < n && s.evictLocked(sh, evicted) {
			if off > 0 {
				s.spills.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// claim adds n to the bytes in use if the sum stays within capacity.
func (s *Shards[V]) claim(n int64) bool {
	for {
		u := s.used.Load()
		if u+n > s.capacity {
			return false
		}
		if s.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// evictLocked evicts the least recently used entry of sh (lock held),
// reporting false when sh is empty.
func (s *Shards[V]) evictLocked(sh *shard[V], evicted *[]Item[V]) bool {
	e := sh.root.prev
	if e == &sh.root {
		return false
	}
	sh.remove(e)
	s.used.Add(-e.Size)
	s.evictions.Add(1)
	if evicted != nil {
		*evicted = append(*evicted, e.Item)
	}
	return true
}

// publish links it, whose bytes are already reserved, into shard i as
// the most recent entry. The entry it replaces, if any, is returned
// and its bytes go back to the budget.
func (s *Shards[V]) publish(i int, it Item[V]) (prev Item[V], replaced bool) {
	sh := &s.shards[i]
	sh.mu.Lock()
	e := sh.items[it.Key]
	if e == nil {
		e = &entry[V]{}
		sh.items[it.Key] = e
		sh.objects.Add(1)
	} else {
		prev, replaced = e.Item, true
		sh.unlink(e)
		s.used.Add(-prev.Size)
	}
	sh.bytes.Add(it.Size - prev.Size)
	e.Item = it
	sh.pushFront(e)
	sh.mu.Unlock()
	return prev, replaced
}

// Get returns key's value and marks it most recently used. pin, when
// non-nil, runs on a hit under the shard lock, before any evictor can
// unlink the entry; it must not block.
//
//ftc:hotpath
func (s *Shards[V]) Get(key string, pin func(V)) (v V, ok bool) {
	sh := &s.shards[s.index(key)]
	sh.mu.Lock() //ftclint:ignore hotpathlock per-shard LRU lock is the sharded design; contention is 1/N by construction
	e := sh.items[key]
	if e == nil {
		sh.mu.Unlock()
		s.misses.Add(1)
		return v, false
	}
	sh.unlink(e)
	sh.pushFront(e)
	v = e.Val
	if pin != nil {
		pin(v)
	}
	sh.mu.Unlock()
	s.hits.Add(1)
	return v, true
}

// Has reports residency without perturbing recency or counters.
func (s *Shards[V]) Has(key string) bool {
	sh := &s.shards[s.index(key)]
	sh.mu.Lock()
	_, ok := sh.items[key]
	sh.mu.Unlock()
	return ok
}

// Delete removes key, returning the value it held.
func (s *Shards[V]) Delete(key string) (v V, ok bool) {
	sh := &s.shards[s.index(key)]
	sh.mu.Lock()
	e := sh.items[key]
	if e != nil {
		sh.remove(e)
		s.used.Add(-e.Size)
	}
	sh.mu.Unlock()
	if e == nil {
		return v, false
	}
	return e.Val, true
}

// Clear removes every entry, one shard at a time, so a concurrent Put
// keeps a consistent budget. drop, when non-nil, then receives each
// removed value outside the shard lock.
func (s *Shards[V]) Clear(drop func(V)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		items := sh.items
		s.used.Add(-sh.bytes.Load())
		sh.bytes.Store(0)
		sh.objects.Store(0)
		sh.reset()
		sh.mu.Unlock()
		for _, e := range items {
			if drop != nil {
				drop(e.Val)
			}
		}
	}
}

// Keys returns every resident key, unordered. Each shard is read under
// its lock in turn, so the snapshot is per-shard consistent only.
func (s *Shards[V]) Keys() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.items {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// StatsAtomic returns the entry count and resident bytes from the
// atomic mirrors — lock-free, so a telemetry scrape never contends with
// the request path. bytes never exceeds a bounded capacity.
//
//ftc:hotpath
func (s *Shards[V]) StatsAtomic() (objects, bytes int64) {
	for i := range s.shards {
		objects += s.shards[i].objects.Load()
	}
	return objects, s.used.Load()
}

// ShardBytes returns the per-shard byte occupancy (lock-free).
//
//ftc:hotpath
func (s *Shards[V]) ShardBytes() []int64 {
	out := make([]int64, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].bytes.Load()
	}
	return out
}

// Capacity returns the configured byte capacity (<= 0 = unbounded).
func (s *Shards[V]) Capacity() int64 { return s.capacity }

// Counters returns cumulative hit, miss, eviction and spill counts; a
// spill is an eviction outside the inserting shard.
func (s *Shards[V]) Counters() (hits, misses, evictions, spills int64) {
	return s.hits.Load(), s.misses.Load(), s.evictions.Load(), s.spills.Load()
}
