package memtier

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func get(t *testing.T, tier *Tier, path string) []byte {
	t.Helper()
	lease, ok := tier.Get(path)
	if !ok {
		t.Fatalf("Get(%q): not resident", path)
	}
	defer lease.Release()
	return append([]byte(nil), lease.Bytes()...)
}

func TestAdmitGetRoundtrip(t *testing.T) {
	tier := New(1<<20, nil)
	if !tier.Admit("a", []byte("alpha")) {
		t.Fatal("Admit refused under budget")
	}
	if got := get(t, tier, "a"); string(got) != "alpha" {
		t.Fatalf("got %q, want alpha", got)
	}
	if _, ok := tier.Get("missing"); ok {
		t.Fatal("Get on absent path reported resident")
	}
	hits, misses, admits, _, _, _ := tier.Counters()
	if hits != 1 || misses != 1 || admits != 1 {
		t.Fatalf("counters hits=%d misses=%d admits=%d, want 1/1/1", hits, misses, admits)
	}
	if tier.ActiveLeases() != 0 {
		t.Fatalf("active leases %d after release", tier.ActiveLeases())
	}
}

func TestAdmitReplacesBytes(t *testing.T) {
	tier := New(1<<20, nil)
	tier.Admit("a", []byte("old"))
	tier.Admit("a", []byte("newer"))
	if got := get(t, tier, "a"); string(got) != "newer" {
		t.Fatalf("got %q, want newer", got)
	}
	objects, bytes := tier.StatsAtomic()
	if objects != 1 || bytes != 5 {
		t.Fatalf("stats objects=%d bytes=%d, want 1/5", objects, bytes)
	}
}

func TestCapacityRefusals(t *testing.T) {
	tier := New(10, nil)
	if tier.Admit("big", make([]byte, 11)) {
		t.Fatal("admitted object larger than tier")
	}
	disabled := New(0, nil)
	if disabled.Admit("a", []byte("x")) {
		t.Fatal("disabled tier admitted")
	}
	if _, ok := disabled.Get("a"); ok {
		t.Fatal("disabled tier reported residency")
	}
}

func TestLRUEvictionOrderSingleShard(t *testing.T) {
	var demoted []string
	tier := NewShards(30, 1, func(path string, data []byte) {
		demoted = append(demoted, path)
	})
	tier.Admit("a", make([]byte, 10))
	tier.Admit("b", make([]byte, 10))
	tier.Admit("c", make([]byte, 10))
	// Touch a so b is the LRU victim.
	lease, _ := tier.Get("a")
	lease.Release()
	tier.Admit("d", make([]byte, 10))
	if tier.Has("b") {
		t.Fatal("b survived eviction")
	}
	for _, p := range []string{"a", "c", "d"} {
		if !tier.Has(p) {
			t.Fatalf("%s missing", p)
		}
	}
	if len(demoted) != 1 || demoted[0] != "b" {
		t.Fatalf("demotions %v, want [b]", demoted)
	}
	_, _, _, evictions, demotions, _ := tier.Counters()
	if evictions != 1 || demotions != 1 {
		t.Fatalf("evictions=%d demotions=%d, want 1/1", evictions, demotions)
	}
}

func TestCrossShardSpill(t *testing.T) {
	// Budget for exactly one object: every admit must be able to evict
	// victims on *other* shards, or the tier would overshoot.
	tier := NewShards(10, 8, nil)
	for i := 0; i < 64; i++ {
		if !tier.Admit(fmt.Sprintf("f%04d", i), make([]byte, 10)) {
			t.Fatalf("admit %d refused", i)
		}
		if _, bytes := tier.StatsAtomic(); bytes > 10 {
			t.Fatalf("budget overshoot: %d bytes resident", bytes)
		}
	}
	objects, bytes := tier.StatsAtomic()
	if objects != 1 || bytes != 10 {
		t.Fatalf("stats objects=%d bytes=%d, want 1/10", objects, bytes)
	}
}

func TestLeaseOutlivesEviction(t *testing.T) {
	tier := NewShards(10, 1, nil)
	tier.Admit("a", []byte("0123456789"))
	lease, ok := tier.Get("a")
	if !ok {
		t.Fatal("a not resident")
	}
	// Evict a while the lease is live, then admit more objects that
	// would recycle a's buffer if the refcount were broken.
	tier.Admit("b", []byte("bbbbbbbbbb"))
	if tier.Has("a") {
		t.Fatal("a survived eviction")
	}
	tier.Admit("c", []byte("cccccccccc"))
	if got := string(lease.Bytes()); got != "0123456789" {
		t.Fatalf("leased bytes corrupted after eviction: %q", got)
	}
	lease.Release()
	if tier.ActiveLeases() != 0 {
		t.Fatalf("active leases %d", tier.ActiveLeases())
	}
}

func TestLeaseOutlivesInvalidate(t *testing.T) {
	tier := New(1<<20, nil)
	tier.Admit("a", []byte("payload"))
	lease, _ := tier.Get("a")
	if !tier.Invalidate("a") {
		t.Fatal("Invalidate missed resident path")
	}
	if tier.Invalidate("a") {
		t.Fatal("double Invalidate reported resident")
	}
	if got := string(lease.Bytes()); got != "payload" {
		t.Fatalf("leased bytes corrupted after invalidate: %q", got)
	}
	lease.Release()
	_, _, _, _, demotions, invalidations := tier.Counters()
	if demotions != 0 || invalidations != 1 {
		t.Fatalf("demotions=%d invalidations=%d, want 0/1", demotions, invalidations)
	}
}

func TestInvalidateDoesNotDemote(t *testing.T) {
	demoted := 0
	tier := New(1<<20, func(string, []byte) { demoted++ })
	tier.Admit("a", []byte("x"))
	tier.Invalidate("a")
	tier.Admit("b", []byte("y"))
	tier.Clear()
	if demoted != 0 {
		t.Fatalf("invalidate/clear ran the demotion hook %d times", demoted)
	}
}

func TestClear(t *testing.T) {
	tier := New(1<<20, nil)
	for i := 0; i < 100; i++ {
		tier.Admit(fmt.Sprintf("f%d", i), make([]byte, 100))
	}
	lease, _ := tier.Get("f0")
	tier.Clear()
	objects, bytes := tier.StatsAtomic()
	if objects != 0 || bytes != 0 {
		t.Fatalf("stats after Clear: objects=%d bytes=%d", objects, bytes)
	}
	if len(lease.Bytes()) != 100 {
		t.Fatal("lease invalidated by Clear")
	}
	lease.Release()
}

func TestDoubleReleaseIsNoOp(t *testing.T) {
	tier := New(1<<20, nil)
	tier.Admit("a", []byte("x"))
	lease, _ := tier.Get("a")
	lease.Release()
	lease.Release()
	if tier.ActiveLeases() != 0 {
		t.Fatalf("active leases %d after double release", tier.ActiveLeases())
	}
	// The buffer must still be resident and intact.
	if got := get(t, tier, "a"); string(got) != "x" {
		t.Fatalf("resident bytes corrupted: %q", got)
	}
}

// TestConcurrentChurn hammers admit/get/invalidate/clear from many
// goroutines under -race, checking that leased bytes always match the
// content their path implies (each path's bytes are a function of its
// name, so a recycled buffer serving the wrong object is detected).
func TestConcurrentChurn(t *testing.T) {
	tier := NewShards(1<<14, 4, nil)
	content := func(i int) []byte {
		b := make([]byte, 128)
		for j := range b {
			b[j] = byte(i)
		}
		return b
	}
	const keys = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 2000; n++ {
				i := rng.Intn(keys)
				path := fmt.Sprintf("f%04d", i)
				switch rng.Intn(10) {
				case 0:
					tier.Invalidate(path)
				case 1, 2, 3:
					tier.Admit(path, content(i))
				default:
					if lease, ok := tier.Get(path); ok {
						b := lease.Bytes()
						if len(b) != 128 || b[0] != byte(i) || b[127] != byte(i) {
							t.Errorf("wrong bytes for %s: len=%d first=%d", path, len(b), b[0])
						}
						lease.Release()
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if tier.ActiveLeases() != 0 {
		t.Fatalf("leaked leases: %d", tier.ActiveLeases())
	}
	if _, bytes := tier.StatsAtomic(); bytes > 1<<14 {
		t.Fatalf("budget overshoot: %d", bytes)
	}
}

// TestAdmitBudgetNeverOvershotRace polls the tier's byte count from a
// watcher while eight goroutines admit into a small sharded tier under
// constant eviction and cross-shard spill: every poll, not just the
// quiescent state, must be within capacity.
func TestAdmitBudgetNeverOvershotRace(t *testing.T) {
	const (
		capacity = 4096
		objBytes = 96
	)
	tier := NewShards(capacity, 8, nil)
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	var polls, overshoots int
	var worst int64
	go func() {
		defer close(watcherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			polls++
			if _, bytes := tier.StatsAtomic(); bytes > capacity {
				overshoots++
				worst = max(worst, bytes)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := make([]byte, objBytes)
			for i := 0; i < 20000; i++ {
				tier.Admit(fmt.Sprintf("g%d/f%d", g, i%300), data)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-watcherDone
	if overshoots > 0 {
		t.Fatalf("%d of %d polls saw bytes > capacity %d (worst %d)", overshoots, polls, capacity, worst)
	}
	if _, _, _, evictions, _, _ := tier.Counters(); evictions == 0 {
		t.Fatal("expected eviction churn")
	}
}

// TestReplaceInFullTierDoesNotDemoteStaleBytes admits a new version of
// the least recently used path into a full tier: the old bytes may be
// evicted to make room, but must not be demoted, and no other object
// may be lost.
func TestReplaceInFullTierDoesNotDemoteStaleBytes(t *testing.T) {
	var demoted []string
	tier := NewShards(30, 1, func(path string, data []byte) {
		demoted = append(demoted, path+"="+string(data))
	})
	tier.Admit("a", []byte("aaaaaaaaa1"))
	tier.Admit("b", []byte("bbbbbbbbb1"))
	tier.Admit("c", []byte("ccccccccc1"))
	tier.Admit("a", []byte("aaaaaaaaa2"))
	if len(demoted) != 0 {
		t.Fatalf("replacing a demoted %v", demoted)
	}
	if got := get(t, tier, "a"); string(got) != "aaaaaaaaa2" {
		t.Fatalf("a = %q, want the new bytes", got)
	}
	if !tier.Has("b") || !tier.Has("c") {
		t.Fatalf("replacement evicted a bystander: b=%v c=%v", tier.Has("b"), tier.Has("c"))
	}
}
