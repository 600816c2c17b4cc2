// Package par runs index loops on a bounded goroutine pool: the one worker
// pool every parallel stage of the engine shares (leave-one-out folds,
// proximity targets, config sweeps, suite generation, instance preparation,
// tree training, level-2 sampling).
//
// Indices are handed out in increasing order from a shared counter, so a
// pool never idles while work remains. Which worker runs which index is a
// matter of scheduling; callers that need bit-identical results derive
// every random stream from the index, never from the worker.
package par

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker bound for a pool over n indices: workers when
// positive, GOMAXPROCS otherwise, capped at n so no goroutine starts idle,
// and at least 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// For runs fn(worker, i) for every i in [0, n), each exactly once, on
// Workers(workers, n) goroutines; worker is the calling goroutine's id in
// [0, Workers(workers, n)). A single worker runs the loop inline. A failing
// index does not stop the others: For returns after every index has run,
// with the per-index errors joined in index order (nil when none failed).
//
// A panicking index does stop the loop: no worker takes another index, and
// once the others have returned, For panics on the caller's goroutine with
// a *Panic carrying the first panic's value and the stack it was raised on.
// A recover on the caller therefore sees the panic of any pool goroutine,
// which would otherwise end the process.
func For(n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	w := Workers(workers, n)
	var next atomic.Int64
	var panicked atomic.Pointer[Panic]
	run := func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				p, ok := r.(*Panic)
				if !ok {
					p = &Panic{Value: r, Stack: debug.Stack()}
				}
				panicked.CompareAndSwap(nil, p)
			}
		}()
		for panicked.Load() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(worker, i)
		}
	}
	if w == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for worker := range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(worker)
			}()
		}
		wg.Wait()
	}
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return errors.Join(errs...)
}

// Panic is a panic raised by an index of For, re-raised on For's caller.
// A panic that crosses nested pools keeps the innermost stack.
type Panic struct {
	// Value is the value the index panicked with.
	Value any
	// Stack is the panicking goroutine's stack, from runtime/debug.Stack.
	Stack []byte
}

// Error reports the original panic value, so a recover that formats the
// panic as an error reads as the index's own panic.
func (p *Panic) Error() string { return fmt.Sprint(p.Value) }

// Unwrap returns the panic value when it is an error.
func (p *Panic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}
