package lru

import (
	"fmt"
	"sync"
	"testing"
)

// TestBudgetRaceWithBatchDeleteClear races single puts, batches,
// deletes and Clear against a watcher polling the lock-free stats. The
// budget must hold on every poll, and at quiescence the resident keys,
// the atomic mirrors and the per-shard byte vector must agree.
func TestBudgetRaceWithBatchDeleteClear(t *testing.T) {
	const capacity = 2048
	s := New[int](capacity, 4)
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, bytes := s.StatsAtomic(); bytes > capacity {
				t.Errorf("bytes %d > capacity %d mid-race", bytes, capacity)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%150)
				switch i % 8 {
				case 0:
					batch := make([]Item[int], 6)
					for j := range batch {
						batch[j] = Item[int]{Key: fmt.Sprintf("k%d", (i+j)%150), Val: i, Size: int64(32 + j*16)}
					}
					s.PutBatch(batch, nil)
				case 1:
					s.Delete(key)
				case 2:
					if g == 0 && i%400 == 2 {
						s.Clear(nil)
					}
				default:
					s.Put(key, i, int64(16+i%96), nil)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-watcherDone

	objects, bytes := s.StatsAtomic()
	if n := len(s.Keys()); int64(n) != objects {
		t.Errorf("%d keys resident, atomic objects %d", n, objects)
	}
	var sum int64
	for _, b := range s.ShardBytes() {
		sum += b
	}
	if sum != bytes || bytes > capacity {
		t.Errorf("shard bytes sum %d, used %d, capacity %d", sum, bytes, capacity)
	}
	s.Clear(nil)
	if objects, bytes := s.StatsAtomic(); objects != 0 || bytes != 0 {
		t.Errorf("after Clear: objects=%d bytes=%d, want 0/0", objects, bytes)
	}
}
