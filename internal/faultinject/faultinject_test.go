package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestInertByDefault(t *testing.T) {
	Reset()
	if armed.Load() {
		t.Fatal("package armed with no hooks set")
	}
	if err := Fire(JournalWrite); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
}

// TestDisarmedFireZeroAlloc pins the cost contract that lets injection
// points sit on hot paths: a disarmed Fire must not allocate.
func TestDisarmedFireZeroAlloc(t *testing.T) {
	Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		_ = Fire(Handler)
	})
	if allocs != 0 {
		t.Fatalf("disarmed Fire allocates %v times per call, want 0", allocs)
	}
}

func TestSetFireRemove(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	remove := Set(JournalWrite, Error(boom))
	if !armed.Load() {
		t.Fatal("Set did not arm")
	}
	if err := Fire(JournalWrite); !errors.Is(err, boom) {
		t.Fatalf("Fire = %v, want %v", err, boom)
	}
	// Other points stay inert.
	if err := Fire(Handler); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
	remove()
	if armed.Load() {
		t.Fatal("remove did not disarm the last hook")
	}
	if err := Fire(JournalWrite); err != nil {
		t.Fatalf("Fire after remove = %v, want nil", err)
	}
}

// TestStaleRemoverIsNoOp checks that a remover from a replaced hook
// cannot disarm its replacement.
func TestStaleRemoverIsNoOp(t *testing.T) {
	defer Reset()
	first := errors.New("first")
	second := errors.New("second")
	removeFirst := Set(DepcacheBuild, Error(first))
	Set(DepcacheBuild, Error(second))
	removeFirst() // stale: must not remove the second hook
	if err := Fire(DepcacheBuild); !errors.Is(err, second) {
		t.Fatalf("Fire = %v, want the replacement hook's %v", err, second)
	}
}

func TestSleepHook(t *testing.T) {
	defer Reset()
	Set(QueryLatency, Sleep(10*time.Millisecond))
	t0 := time.Now()
	if err := Fire(QueryLatency); err != nil {
		t.Fatalf("Sleep hook returned %v", err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Fatalf("Sleep hook returned after %v, want ≥ 10ms", d)
	}
}

// TestPanicHookPropagates checks a panicking hook reaches the caller —
// the mechanism the chaos suite uses to simulate handler bugs.
func TestPanicHookPropagates(t *testing.T) {
	defer Reset()
	Set(Handler, func() error { panic("injected") })
	defer func() {
		if p := recover(); p != "injected" {
			t.Fatalf("recovered %v, want the injected panic", p)
		}
	}()
	_ = Fire(Handler)
	t.Fatal("panicking hook did not panic")
}

// TestConcurrentFire hammers Fire from many goroutines while hooks are
// armed and removed — race-detector fodder for the global state.
func TestConcurrentFire(t *testing.T) {
	defer Reset()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = Fire(JournalWrite)
					_ = Fire(Handler)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		remove := Set(JournalWrite, Error(errors.New("x")))
		_ = Fire(JournalWrite)
		remove()
	}
	close(stop)
	wg.Wait()
}
