// Package memtier is the RAM tier of the FT-Cache storage stack: a
// sharded in-memory hot-object cache that sits in front of the NVMe
// store on the server read path (Hoard-style — RAM above local flash
// above the PFS).
//
// Only published-hot objects are admitted (the server gates Admit on
// the loadctl hot-key sketch), so the tier's byte budget is spent
// exclusively on the head of the access distribution. Hits serve
// zero-copy: Get returns a refcounted Lease into the tier's pooled
// buffers, which the response writer holds until the coalesced flush
// has the bytes on the wire — an evicted entry's buffer returns to the
// pool only after the last lease drops.
//
// Sharding, LRU order and the byte budget come from the lru engine
// (internal/lru), shared with storage.NVMe. Demotion is RAM→NVMe→PFS:
// every eviction hands the object to the OnDemote callback, which the
// server uses to guarantee the next tier down still holds it before the
// RAM copy dies.
package memtier

import (
	"sync/atomic"

	"repro/internal/lru"
)

// DefaultShards matches storage.DefaultNVMeShards: enough to spread a
// busy node's request goroutines across independent locks.
const DefaultShards = lru.DefaultShards

// OnDemote is called for every object evicted by admission pressure,
// outside any shard lock, with the object's bytes still valid for the
// duration of the call. The server's demotion hook re-fills NVMe when
// the object is no longer resident there, completing the RAM→NVMe→PFS
// chain. Invalidate and Clear do NOT demote: an invalidated object is
// being removed because its bytes are no longer true.
type OnDemote func(path string, data []byte)

// Tier is the sharded RAM cache. The zero value is not usable; use New.
type Tier struct {
	lru      *lru.Shards[*buffer] // each resident buffer holds one residency reference
	onDemote OnDemote             // nil = no demotion hook

	admits        atomic.Int64
	demotions     atomic.Int64 // evictions that ran the OnDemote hook
	invalidations atomic.Int64
	leases        atomic.Int64 // currently outstanding leases (gauge)
}

// New creates a tier with the given byte capacity and DefaultShards
// shards. capacity <= 0 disables admission entirely (Admit refuses
// everything) — a disabled tier is still safe to Get/Invalidate on.
func New(capacity int64, onDemote OnDemote) *Tier {
	return NewShards(capacity, DefaultShards, onDemote)
}

// NewShards is New with an explicit shard count (rounded up to a power
// of two; non-positive selects DefaultShards). shards=1 gives exact
// global LRU order, which the eviction-order tests rely on.
func NewShards(capacity int64, shards int, onDemote OnDemote) *Tier {
	return &Tier{lru: lru.New[*buffer](capacity, shards), onDemote: onDemote}
}

// Get returns a zero-copy lease on path's bytes, refreshing recency.
// ok=false means not resident (and the returned lease is nil). The
// caller owns exactly one Release on the returned lease; the bytes
// stay valid — even across a concurrent eviction or Invalidate — until
// that Release.
//
//ftc:hotpath
func (t *Tier) Get(path string) (*Lease, bool) {
	// The lease reference is taken under the shard lock, before any
	// evictor can unlink the entry and drop its residency reference.
	buf, ok := t.lru.Get(path, (*buffer).pin)
	if !ok {
		return nil, false
	}
	t.leases.Add(1)
	return &Lease{tier: t, buf: buf}, true
}

// Has reports residency without perturbing recency or counters.
func (t *Tier) Has(path string) bool { return t.lru.Has(path) }

// Admit copies data into a pooled buffer and makes it resident,
// evicting least-recently-used objects (own shard first, then spilling
// across the others) until the global budget is met. Objects larger
// than the whole tier are refused (false) — they live on NVMe only.
// Admitting an already-resident path replaces its bytes.
func (t *Tier) Admit(path string, data []byte) bool {
	size := int64(len(data))
	if c := t.lru.Capacity(); c <= 0 || size > c {
		return false
	}
	buf := acquireBuffer(len(data))
	copy(buf.b, data)
	var victims []lru.Item[*buffer]
	old, replaced := t.lru.Put(path, buf, size, &victims)
	t.admits.Add(1)
	if replaced {
		old.decRef() // no demotion: the replacer is the fresher copy
	}
	// Outside every shard lock: each victim is offered to the demotion
	// hook while its residency reference still pins the bytes, then the
	// reference drops — the buffer returns to the pool once the last
	// lease (if any) releases. path's own older copy, evicted to make
	// room for the new one, is stale and never demoted.
	for _, v := range victims {
		if t.onDemote != nil && v.Key != path {
			t.onDemote(v.Key, v.Val.b)
			t.demotions.Add(1)
		}
		v.Val.decRef()
	}
	return true
}

// Invalidate removes path if resident, reporting whether it was. The
// bytes are torn down without demotion: invalidation means the object
// is stale (ownership moved, or a writer replaced it), so pushing the
// old bytes down a tier would resurrect them. Outstanding leases stay
// valid until released.
func (t *Tier) Invalidate(path string) bool {
	buf, ok := t.lru.Delete(path)
	if ok {
		t.invalidations.Add(1)
		buf.decRef()
	}
	return ok
}

// Clear drops every resident object without demotion — the crash /
// re-own path (a node losing its tier on restart starts empty).
func (t *Tier) Clear() { t.lru.Clear((*buffer).decRef) }

// Capacity returns the configured byte budget (<= 0 = disabled).
func (t *Tier) Capacity() int64 { return t.lru.Capacity() }

// StatsAtomic returns object count and resident bytes from the atomic
// mirrors — lock-free, for telemetry scrapes.
//
//ftc:hotpath
func (t *Tier) StatsAtomic() (objects, bytes int64) { return t.lru.StatsAtomic() }

// ShardBytes returns per-shard byte occupancy (lock-free).
func (t *Tier) ShardBytes() []int64 { return t.lru.ShardBytes() }

// Counters returns the cumulative hit/miss/admit/eviction/demotion/
// invalidation counts.
func (t *Tier) Counters() (hits, misses, admits, evictions, demotions, invalidations int64) {
	hits, misses, evictions, _ = t.lru.Counters()
	return hits, misses, t.admits.Load(), evictions, t.demotions.Load(), t.invalidations.Load()
}

// ActiveLeases returns the number of leases handed out by Get and not
// yet released — the leak observable the chaos soak asserts is zero
// once traffic drains.
func (t *Tier) ActiveLeases() int64 { return t.leases.Load() }
