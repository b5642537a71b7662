// Package storage provides the two storage tiers of the FT-Cache stack:
//
//   - NVMe: the node-local cache device (Frontier: 2×1.9 TB PM9A3 in
//     RAID0, 3.5 TB usable) — here an in-memory object store with
//     capacity accounting and LRU eviction.
//   - PFS: the center-wide parallel file system (Lustre "Orion") — a
//     shared object store that additionally tracks access counts, the
//     key observable in the paper's experiments (each strategy is
//     distinguished by *how often it goes back to the PFS*).
//
// Both stores are built on the lru engine (shared with the RAM tier,
// internal/memtier): object paths hash onto independent lock-protected
// shards so concurrent requests from many client goroutines contend
// only when they land on the same shard, not on one global mutex. The
// NVMe cache keeps one global byte budget that is never overshot, so
// the byte bound and the ErrTooLarge rule are identical to an unsharded
// cache; only the LRU victim order becomes per-shard-approximate when
// more than one shard is configured (shards=1 preserves exact global
// LRU for tests). The PFS budget is unbounded: it never evicts.
//
// Functional behaviour (what is stored where) is separated from
// performance behaviour: device *models* in device.go turn byte counts
// and concurrency into service times for the discrete-event simulator,
// so live tests run at memory speed while experiments reproduce
// Frontier-like timing.
package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/lru"
)

// Common store errors.
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("storage: object not found")
	// ErrTooLarge reports an object bigger than the device capacity.
	ErrTooLarge = errors.New("storage: object exceeds device capacity")
)

// notFoundError carries the missing path without paying a fmt.Errorf
// allocation storm on every miss — the miss path is as hot as the hit
// path under a cold cache. errors.Is(err, ErrNotFound) still matches
// through Unwrap.
type notFoundError struct{ path string }

func (e *notFoundError) Error() string { return "storage: object not found: " + e.path }
func (e *notFoundError) Unwrap() error { return ErrNotFound }

// Store is the minimal object interface shared by both tiers.
type Store interface {
	// Put stores data under path, replacing any prior object.
	Put(path string, data []byte) error
	// Get returns the object at path or ErrNotFound. The returned slice
	// must not be modified by the caller.
	Get(path string) ([]byte, error)
	// Has reports whether path is present.
	Has(path string) bool
	// Delete removes path if present; absent paths are a no-op.
	Delete(path string)
	// Stats returns object count and total bytes.
	Stats() (objects int, bytes int64)
}

// DefaultNVMeShards is the shard count NewNVMe uses.
const DefaultNVMeShards = lru.DefaultShards

// NVMe is the node-local cache store: bounded capacity with LRU eviction
// on insert pressure (the cache holds a *replaceable copy* of PFS data,
// so evicting is always safe). Sharding, LRU order and the byte budget
// are the lru engine's; NVMe adds the ErrTooLarge rule.
type NVMe struct {
	lru *lru.Shards[[]byte]
}

// NewNVMe creates a store with the given byte capacity and
// DefaultNVMeShards shards. capacity <= 0 means unbounded (useful in
// unit tests).
func NewNVMe(capacity int64) *NVMe {
	return NewNVMeShards(capacity, DefaultNVMeShards)
}

// NewNVMeShards creates a store with an explicit shard count (rounded up
// to a power of two; non-positive selects DefaultNVMeShards). shards=1
// gives the exact global LRU order of an unsharded cache, which the
// eviction-order tests rely on.
func NewNVMeShards(capacity int64, shards int) *NVMe {
	return &NVMe{lru: lru.New[[]byte](capacity, shards)}
}

func (n *NVMe) tooLarge(size int64) error {
	if c := n.lru.Capacity(); c > 0 && size > c {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, c)
	}
	return nil
}

// Put implements Store, evicting least-recently-used objects as needed.
func (n *NVMe) Put(path string, data []byte) error {
	if err := n.tooLarge(int64(len(data))); err != nil {
		return err
	}
	n.lru.Put(path, data, int64(len(data)), nil)
	return nil
}

// BatchEntry is one object of a PutBatch.
type BatchEntry struct {
	Path string
	Data []byte
}

// PutBatch stores a batch of objects — the server-side half of the
// batched ingest pipeline, where one decoded wire batch becomes one
// insert pass. Returns one error slot per entry (nil on success); the
// only per-entry failure is ErrTooLarge.
//
// The batch's bytes are reserved before any member is published, so no
// member evicts a batch-mate and occupancy never exceeds capacity:
// evicting an object the same call just accepted would turn the batch
// ack into a lie. Only a batch that cannot fit even in an otherwise
// empty cache falls back to sequential-put semantics (newest insert
// kept, earlier batch-mates evictable).
func (n *NVMe) PutBatch(entries []BatchEntry) []error {
	errs := make([]error, len(entries))
	items := make([]lru.Item[[]byte], 0, len(entries))
	for i, e := range entries {
		if errs[i] = n.tooLarge(int64(len(e.Data))); errs[i] == nil {
			items = append(items, lru.Item[[]byte]{Key: e.Path, Val: e.Data, Size: int64(len(e.Data))})
		}
	}
	n.lru.PutBatch(items, nil)
	return errs
}

// Get implements Store and refreshes recency on hit.
//
//ftc:hotpath
func (n *NVMe) Get(path string) ([]byte, error) {
	data, ok := n.lru.Get(path, nil)
	if !ok {
		return nil, &notFoundError{path}
	}
	return data, nil
}

// Has implements Store without perturbing recency or hit counters.
func (n *NVMe) Has(path string) bool { return n.lru.Has(path) }

// Delete implements Store.
func (n *NVMe) Delete(path string) { n.lru.Delete(path) }

// Paths returns every resident path (unordered). Diagnostic use only —
// the snapshot is per-shard consistent, not globally atomic.
func (n *NVMe) Paths() []string { return n.lru.Keys() }

// Stats implements Store.
func (n *NVMe) Stats() (int, int64) {
	objects, bytes := n.lru.StatsAtomic()
	return int(objects), bytes
}

// StatsAtomic is the lock-free variant of Stats for telemetry scrapes:
// it sums the per-shard atomic mirrors, so a scrape never contends with
// the request path.
//
//ftc:hotpath
func (n *NVMe) StatsAtomic() (objects int64, bytes int64) { return n.lru.StatsAtomic() }

// ShardBytes returns the current per-shard byte occupancy (lock-free) —
// the balance observable the /debug/ftcache snapshot exposes.
//
//ftc:hotpath
func (n *NVMe) ShardBytes() []int64 { return n.lru.ShardBytes() }

// Counters returns cumulative hit/miss/eviction counts.
func (n *NVMe) Counters() (hits, misses, evictions int64) {
	hits, misses, evictions, _ = n.lru.Counters()
	return hits, misses, evictions
}

// Spills returns the cumulative count of evictions that spilled outside
// the inserting shard — a signal that one shard's insert pressure is
// eating the budget of the others.
func (n *NVMe) Spills() int64 {
	_, _, _, spills := n.lru.Counters()
	return spills
}

// Capacity returns the configured byte capacity (0 = unbounded).
func (n *NVMe) Capacity() int64 { return n.lru.Capacity() }

// Clear drops every object — used to model losing a node's cache when
// the node "fails" and later rejoins empty.
func (n *NVMe) Clear() { n.lru.Clear(nil) }

// DefaultPFSShards spreads the shared store's read traffic — every node
// of a job faulting in its first epoch hits the same PFS — across
// independent locks.
const DefaultPFSShards = 16

// PFS is the shared parallel file system: the durable home of the
// training dataset. It counts reads and metadata operations because the
// paper's whole argument is about minimizing them. Objects live in the
// lru engine with an unbounded budget, so nothing is ever evicted;
// counters are global atomics.
type PFS struct {
	objects *lru.Shards[[]byte]

	// readDelay, when > 0 (ns), stalls every Get by that long — the
	// chaos harness's PFS-contention model (a loaded Lustre answering
	// slowly fleet-wide). One atomic load when unset.
	readDelay atomic.Int64

	reads       atomic.Int64
	readBytes   atomic.Int64
	metadataOps atomic.Int64
}

// NewPFS creates an empty PFS with DefaultPFSShards shards.
func NewPFS() *PFS {
	return &PFS{objects: lru.New[[]byte](0, DefaultPFSShards)}
}

// Put implements Store (dataset staging, done before training).
func (p *PFS) Put(path string, data []byte) error {
	p.objects.Put(path, data, int64(len(data)), nil)
	return nil
}

// Get implements Store, counting one metadata op and one read.
//
//ftc:hotpath
func (p *PFS) Get(path string) ([]byte, error) {
	if d := p.readDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	p.metadataOps.Add(1)
	data, ok := p.objects.Get(path, nil)
	if !ok {
		return nil, &notFoundError{path}
	}
	p.reads.Add(1)
	p.readBytes.Add(int64(len(data)))
	return data, nil
}

// Has implements Store, counting one metadata op.
func (p *PFS) Has(path string) bool {
	p.metadataOps.Add(1)
	return p.objects.Has(path)
}

// Delete implements Store.
func (p *PFS) Delete(path string) { p.objects.Delete(path) }

// Stats implements Store.
func (p *PFS) Stats() (int, int64) {
	objects, bytes := p.objects.StatsAtomic()
	return int(objects), bytes
}

// Counters returns cumulative read count, read bytes, and metadata ops.
func (p *PFS) Counters() (reads, readBytes, metadataOps int64) {
	return p.reads.Load(), p.readBytes.Load(), p.metadataOps.Load()
}

// ResetCounters zeroes the access counters (between experiment phases).
func (p *PFS) ResetCounters() {
	p.reads.Store(0)
	p.readBytes.Store(0)
	p.metadataOps.Store(0)
}

// SetReadDelay injects a per-Get service delay (contention model);
// d <= 0 clears it. Takes effect on the next read, fleet-wide — every
// consumer of this PFS (server fallback, client direct read, policy
// probe) observes the same slowdown, exactly like a congested shared
// file system.
func (p *PFS) SetReadDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.readDelay.Store(int64(d))
}

// ReadDelay returns the injected per-Get delay (0 = none).
func (p *PFS) ReadDelay() time.Duration { return time.Duration(p.readDelay.Load()) }
