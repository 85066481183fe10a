package faultpoint

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsNil(t *testing.T) {
	t.Cleanup(Reset)
	if err := Hit("nobody.armed.this"); err != nil {
		t.Fatalf("disarmed point returned %v", err)
	}
}

func TestErrorOnceThenClean(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Plan{}) // zero value: one error
	if err := Hit("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("first hit = %v, want ErrInjected", err)
	}
	if err := Hit("p"); err != nil {
		t.Fatalf("second hit = %v, want nil (Times=1 exhausted)", err)
	}
	if got := Fired("p"); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

// TestCustomErrAndAlways: Times -1 fires the default ErrInjected error on
// every hit while the point is armed.
func TestCustomErrAndAlways(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Plan{Times: -1})
	for i := 0; i < 3; i++ {
		if err := Hit("p"); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d = %v, want ErrInjected", i, err)
		}
	}
	if got := Fired("p"); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
}

func TestAfterSkipsWarmup(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Plan{After: 2})
	if err := Hit("p"); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	if err := Hit("p"); err != nil {
		t.Fatalf("hit 2 fired early: %v", err)
	}
	if err := Hit("p"); err == nil {
		t.Fatal("hit 3 should fire")
	}
}

func TestPanicKind(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Plan{Kind: KindPanic})
	defer func() {
		if recover() == nil {
			t.Fatal("KindPanic did not panic")
		}
	}()
	Hit("p")
}

func TestStallReleasedByDisable(t *testing.T) {
	t.Cleanup(Reset)
	Enable("p", Plan{Kind: KindStall, Times: -1})
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		Hit("p")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("stall returned before Disable")
	case <-time.After(20 * time.Millisecond):
	}
	Disable("p")
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stall not released by Disable")
	}
	wg.Wait()
}

func TestResetDisarmsEverything(t *testing.T) {
	Enable("a", Plan{Times: -1})
	Enable("b", Plan{Kind: KindStall, Times: -1})
	Reset()
	if err := Hit("a"); err != nil {
		t.Fatalf("point a survived Reset: %v", err)
	}
	if got := Fired("a"); got != 0 {
		t.Fatalf("Fired after Reset = %d, want 0", got)
	}
}
