package state

import (
	"sync"
	"testing"
)

// TestLockSetOrderAndDedup: lock sets are sorted and deduplicated, so two
// sets acquire shared stripes in a consistent global order.
func TestLockSetOrderAndDedup(t *testing.T) {
	s := NewStripes(8)
	ls := s.LockSet([]string{"b", "a", "c", "a", "b"})
	if ls.Empty() {
		t.Fatal("non-empty var list produced empty lock set")
	}
	for i := 1; i < len(ls.idx); i++ {
		if ls.idx[i] <= ls.idx[i-1] {
			t.Fatalf("stripe indices not strictly increasing: %v", ls.idx)
		}
	}
	if got := s.LockSet(nil); !got.Empty() {
		t.Fatalf("empty var list produced lock set %v", got.idx)
	}
	// Lock/Unlock on an empty set must be no-ops.
	empty := s.LockSet(nil)
	empty.Lock()
	empty.Unlock()
}

// TestStripesMutualExclusion: overlapping lock sets serialize a counter
// increment; run with -race to catch violations structurally.
func TestStripesMutualExclusion(t *testing.T) {
	s := NewStripes(4)
	counter := 0
	var wg sync.WaitGroup
	// Every set contains "x", so all goroutines share at least one stripe
	// and the counter increments are mutually exclusive.
	vars := [][]string{{"x"}, {"x", "y"}, {"y", "x"}, {"x", "y", "z"}, {"z", "x"}}
	for g := 0; g < 8; g++ {
		for _, vs := range vars {
			ls := s.LockSet(vs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					ls.Lock()
					counter++
					ls.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if want := 8 * len(vars) * 200; counter != want {
		t.Fatalf("lost updates: counter = %d, want %d", counter, want)
	}
}

// TestStripesDeadlockFree: goroutines acquiring every pair of overlapping
// sets in both orders complete (ordered acquisition prevents deadlock).
func TestStripesDeadlockFree(t *testing.T) {
	s := NewStripes(2) // tiny pool maximizes collision pressure
	a := s.LockSet([]string{"a", "b", "c", "d"})
	b := s.LockSet([]string{"d", "c", "b", "a"})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		ls := a
		if g%2 == 0 {
			ls = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ls.Lock()
				ls.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestTryLock(t *testing.T) {
	s := NewStripes(4)
	a := s.LockSet([]string{"x", "y"})
	b := s.LockSet([]string{"y", "z"})
	if !a.TryLock() {
		t.Fatal("TryLock on free stripes failed")
	}
	// b overlaps a on y's stripe: must fail and back out anything it took.
	if b.TryLock() {
		t.Fatal("TryLock succeeded on held stripe")
	}
	a.Unlock()
	// The failed attempt must have released its partial acquisitions.
	if !b.TryLock() {
		t.Fatal("TryLock failed after contender unlocked — partial acquisition leaked")
	}
	b.Unlock()
	empty := s.LockSet(nil)
	if !empty.TryLock() {
		t.Fatal("TryLock on empty set failed")
	}
}
