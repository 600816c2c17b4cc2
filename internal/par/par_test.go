package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-3, 1000, min(procs, 1000)},
		{4, 10, 4},
		{4, 3, 3},
		{4, 0, 1},
		{0, 0, 1},
	} {
		if got := Workers(tc.workers, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestForConcurrentEachIndexOnce pins the pool contract at every shape that
// matters: one worker (inline), fewer workers than indices, exactly n, more
// workers than indices, and an empty loop. Every index must run exactly
// once and every worker id must lie in [0, Workers(workers, n)).
func TestForConcurrentEachIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, n, n + 3, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runs := make([]atomic.Int32, n)
			bound := Workers(workers, n)
			var badWorker atomic.Int32
			badWorker.Store(-1)
			err := For(n, workers, func(worker, i int) error {
				if worker < 0 || worker >= bound {
					badWorker.Store(int32(worker))
				}
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if w := badWorker.Load(); w != -1 {
				t.Errorf("worker id %d outside [0, %d)", w, bound)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times", i, c)
				}
			}
		})
	}
	called := false
	if err := For(0, 4, func(int, int) error { called = true; return nil }); err != nil || called {
		t.Errorf("For(0, ...) = %v, called %v; want nil, no call", err, called)
	}
}

// TestForJoinsErrors checks that failures neither short-circuit the loop
// nor lose each other: every index still runs, and the joined error wraps
// every per-index error.
func TestForJoinsErrors(t *testing.T) {
	const n = 12
	for _, workers := range []int{1, 3} {
		var ran atomic.Int32
		errA, errB := errors.New("fail 2"), errors.New("fail 9")
		err := For(n, workers, func(_, i int) error {
			ran.Add(1)
			switch i {
			case 2:
				return errA
			case 9:
				return errB
			}
			return nil
		})
		if ran.Load() != n {
			t.Errorf("workers=%d: %d of %d indices ran", workers, ran.Load(), n)
		}
		if !errors.Is(err, errA) || !errors.Is(err, errB) {
			t.Errorf("workers=%d: joined error %v lost a cause", workers, err)
		}
		if want := "fail 2\nfail 9"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: error %q, want index order %q", workers, err, want)
		}
	}
}

// TestForPanicReachesCaller panics at one index on every pool shape: For
// must return the panic to its caller as a *Panic carrying the original
// value and the panicking goroutine's stack, after every worker has
// stopped, instead of letting it end the process from a pool goroutine.
func TestForPanicReachesCaller(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var running atomic.Int32
			got := func() (r any) {
				defer func() { r = recover() }()
				For(n, workers, func(_, i int) error {
					running.Add(1)
					defer running.Add(-1)
					if i == 7 {
						explode(i)
					}
					return nil
				})
				return nil
			}()
			p, ok := got.(*Panic)
			if !ok {
				t.Fatalf("recovered %T %v, want *Panic", got, got)
			}
			if p.Value != "index 7 exploded" || p.Error() != "index 7 exploded" {
				t.Errorf("panic value %v, error %q; want the index's own panic", p.Value, p.Error())
			}
			if !strings.Contains(string(p.Stack), "par.explode") {
				t.Errorf("panic stack does not show the panicking function:\n%s", p.Stack)
			}
			if r := running.Load(); r != 0 {
				t.Errorf("%d indices still running after For re-raised", r)
			}
		})
	}
}

// TestForPanicNestedKeepsInnerStack re-raises a panic through two nested
// pools: the caller sees the inner index's value and stack, not a wrapper
// of a wrapper.
func TestForPanicNestedKeepsInnerStack(t *testing.T) {
	got := func() (r any) {
		defer func() { r = recover() }()
		For(4, 2, func(_, i int) error {
			return For(4, 2, func(_, j int) error {
				if i == 1 && j == 2 {
					explode(12)
				}
				return nil
			})
		})
		return nil
	}()
	p, ok := got.(*Panic)
	if !ok || p.Value != "index 12 exploded" || !strings.Contains(string(p.Stack), "par.explode") {
		t.Fatalf("recovered %#v, want the inner *Panic", got)
	}
}

//go:noinline
func explode(i int) { panic(fmt.Sprintf("index %d exploded", i)) }
