package pool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoComputesOncePerKey: concurrent Gets of one key share one run of
// fn, and a memoized error is returned even to a caller whose fn would
// succeed.
func TestMemoComputesOncePerKey(t *testing.T) {
	var m Memo[string, int]
	var runs atomic.Int64
	start := make(chan struct{})
	got := make([]int, 16)
	errs := make([]error, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = m.Get("k", func() (int, error) {
				runs.Add(1)
				time.Sleep(10 * time.Millisecond) // let the other callers arrive
				return 42, nil
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", n)
	}
	for i := range got {
		if got[i] != 42 || errs[i] != nil {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, got[i], errs[i])
		}
	}

	boom := errors.New("boom")
	if _, err := m.Get("bad", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("failing Get returned %v, want %v", err, boom)
	}
	v, err := m.Get("bad", func() (int, error) {
		t.Error("fn ran again for a key that already failed")
		return 7, nil
	})
	if v != 0 || err != boom {
		t.Fatalf("Get after a failure = (%d, %v), want the stored (0, %v)", v, err, boom)
	}
}

// TestMemoKeysIndependent: a Get of one key does not wait for another key's
// running fn.
func TestMemoKeysIndependent(t *testing.T) {
	var m Memo[int, int]
	entered, release := make(chan struct{}), make(chan struct{})
	slow := make(chan int)
	go func() {
		v, _ := m.Get(1, func() (int, error) {
			close(entered)
			<-release
			return 1, nil
		})
		slow <- v
	}()
	<-entered
	fast := make(chan int)
	go func() {
		v, _ := m.Get(2, func() (int, error) { return 2, nil })
		fast <- v
	}()
	select {
	case v := <-fast:
		if v != 2 {
			t.Fatalf("key 2 = %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get of key 2 waited for key 1's running fn")
	}
	close(release)
	if v := <-slow; v != 1 {
		t.Fatalf("key 1 = %d, want 1", v)
	}
}
