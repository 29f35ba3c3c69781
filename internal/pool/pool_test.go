package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsEverySubmittedTask(t *testing.T) {
	var n atomic.Int64
	done, err := ForEach(4, 100, func(_, _ int) error {
		n.Add(1)
		return nil
	})
	if done != 100 || err != nil {
		t.Fatalf("ForEach = (%d, %v), want (100, nil)", done, err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d of 100 items", n.Load())
	}
}

func TestConcurrencyBounded(t *testing.T) {
	const limit = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	_, err := ForEach(limit, 50, func(_, _ int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("observed %d concurrent items, limit %d", p, limit)
	}
}

// TestFirstErrorRetained pins the serial loop's error on both paths: the
// lowest failing item wins, even when a higher item fails first.
func TestFirstErrorRetained(t *testing.T) {
	boom := errors.New("boom")
	i, err := ForEach(1, 3, func(_, i int) error {
		switch i {
		case 1:
			return boom
		case 2:
			return errors.New("later")
		}
		return nil
	})
	if i != 1 || !errors.Is(err, boom) {
		t.Fatalf("serial ForEach = (%d, %v), want (1, %v)", i, err, boom)
	}

	// Parallel: item 2 blocks until item 5 has failed, then fails too. The
	// higher failure lands first, yet ForEach reports item 2's.
	fiveFailed := make(chan struct{})
	i, err = ForEach(4, 100, func(_, i int) error {
		switch i {
		case 2:
			<-fiveFailed
			time.Sleep(10 * time.Millisecond) // let item 5's failure be recorded first
			return fmt.Errorf("item %d", i)
		case 5:
			close(fiveFailed)
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if i != 2 || err == nil || err.Error() != "item 2" {
		t.Fatalf("parallel ForEach = (%d, %v), want (2, item 2)", i, err)
	}
}

func TestZeroLimitDefaultsToCores(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	seen := make(map[int]bool)
	done, err := ForEach(0, 10*cores, func(w, _ int) error {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
		return nil
	})
	if done != 10*cores || err != nil {
		t.Fatalf("ForEach = (%d, %v), want (%d, nil)", done, err, 10*cores)
	}
	for w := range seen {
		if w < 0 || w >= cores {
			t.Fatalf("worker id %d outside [0, %d)", w, cores)
		}
	}
}

// TestWorkers pins the shared "not worth parallelizing" policy both the SIMT
// replay pool (warps) and the indexed trace decoder (thread sections) resolve
// through: below MinParallelItems the sequential path wins outright, a
// non-positive limit means one worker per core, and the count never exceeds
// the item count.
func TestWorkers(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	cases := []struct {
		name         string
		limit, items int
		want         int
	}{
		{"zero items", 4, 0, 1},
		{"one item", 4, 1, 1},
		{"below threshold", 4, MinParallelItems - 1, 1},
		{"at threshold", 4, MinParallelItems, 4},
		{"limit one stays serial", 1, 100, 1},
		{"limit capped by items", 64, MinParallelItems, MinParallelItems},
		{"default limit is cores", 0, 10 * cores, cores},
		{"negative limit is cores", -3, 10 * cores, cores},
		{"plenty of items", 4, 1000, 4},
	}
	for _, tc := range cases {
		if got := Workers(tc.limit, tc.items); got != tc.want {
			t.Errorf("%s: Workers(%d, %d) = %d, want %d", tc.name, tc.limit, tc.items, got, tc.want)
		}
	}
}

func TestForEachVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		const items = 200
		var visits [items]atomic.Int64
		workerSeen := make(map[int]bool)
		var mu sync.Mutex
		if done, err := ForEach(workers, items, func(w, i int) error {
			visits[i].Add(1)
			mu.Lock()
			workerSeen[w] = true
			mu.Unlock()
			return nil
		}); done != items || err != nil {
			t.Fatalf("workers=%d: ForEach = (%d, %v), want (%d, nil)", workers, done, err, items)
		}
		for i := range visits {
			if n := visits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, n)
			}
		}
		max := workers
		if max < 1 {
			max = runtime.GOMAXPROCS(0)
		}
		if len(workerSeen) > max {
			t.Fatalf("workers=%d: %d distinct worker ids", workers, len(workerSeen))
		}
		for w := range workerSeen {
			if w < 0 || w >= max {
				t.Fatalf("workers=%d: worker id %d out of range", workers, w)
			}
		}
	}
}

func TestForEachStopsOnTrue(t *testing.T) {
	stop := errors.New("stop")
	// Serial path: item 10 fails, items 11+ never run.
	var ran atomic.Int64
	i, err := ForEach(1, 100, func(_, i int) error {
		ran.Add(1)
		if i == 10 {
			return stop
		}
		return nil
	})
	if ran.Load() != 11 || i != 10 || err != stop {
		t.Fatalf("serial ForEach ran %d items and returned (%d, %v), want 11 and (10, stop)", ran.Load(), i, err)
	}
	// Parallel path: no NEW items are claimed after a failure; already-
	// claimed ones may finish, so the bound is ran <= stop-point + workers.
	const workers = 4
	ran.Store(0)
	i, err = ForEach(workers, 10_000, func(_, _ int) error {
		if ran.Add(1) >= 50 {
			return stop
		}
		return nil
	})
	if n := ran.Load(); n < 50 || n > 50+workers {
		t.Fatalf("parallel ForEach ran %d items, want within [50, %d]", n, 50+workers)
	}
	if i >= 10_000 || err != stop {
		t.Fatalf("parallel ForEach = (%d, %v), want a failing item and stop", i, err)
	}
}
