package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/esdds"
)

// searchMode is the mode every benchmark search runs in.
const searchMode = esdds.SearchFast

// traceWindow is the length of the alternating untraced and traced
// windows of a traced run's timed phase.
const traceWindow = 250 * time.Millisecond

// window is the length of the timed phase's measurement windows. The
// end-to-end metrics are medians over windows, so a stall that hits one
// window of a run barely moves them.
const window = time.Second

type traceOnKey struct{}

// withTracing marks ctx so the traced driver records the op.
func withTracing(ctx context.Context) context.Context {
	return context.WithValue(ctx, traceOnKey{}, true)
}

func tracingOn(ctx context.Context) bool { return ctx.Value(traceOnKey{}) != nil }

// sample is one op of the timed phase.
type sample struct {
	kind   opKind
	lat    time.Duration
	end    time.Duration // completion, since the phase started
	failed bool
	traced bool
}

// loopResult is what the closed loop measured.
type loopResult struct {
	samples []sample
	elapsed time.Duration
	// cpu[i] is the CPU time of client and daemons at the start of
	// window i; cpu[windows] at the end of the last one.
	cpu    []time.Duration
	cpuErr error
	// wrong counts gets that returned a plaintext other than the one
	// inserted; wrongMsg describes the first.
	wrong    int
	wrongMsg string
	// failMsg describes the first failed op.
	failMsg string
	// marked reports whether the mark's op count was reached.
	marked bool
}

// mark asks runLoop to call fn once, from the caller whose op
// completion brings the number of completed ops to ops.
type mark struct {
	ops int64
	fn  func()
}

// runLoop drives s with one closed-loop caller per generator for the
// given number of windows: each caller issues its next op only after
// the previous one returned. cpu is sampled at every window boundary.
// With alternate set, ops started in every second traceWindow are
// traced.
func runLoop(ctx context.Context, s store, gens []*opGen, windows int, alternate bool, cpu func() (time.Duration, error), at mark) loopResult {
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		res       loopResult
		completed atomic.Int64
	)
	c0, err := cpu()
	if err != nil {
		return loopResult{cpuErr: err}
	}
	res.cpu = append(res.cpu, c0)
	start := time.Now()
	deadline := start.Add(time.Duration(windows) * window)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= windows; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(start.Add(time.Duration(i) * window))):
			}
			c, err := cpu()
			mu.Lock()
			res.cpu = append(res.cpu, c)
			if err != nil && res.cpuErr == nil {
				res.cpuErr = err
			}
			mu.Unlock()
		}
	}()
	for _, g := range gens {
		wg.Add(1)
		go func(g *opGen) {
			defer wg.Done()
			local := make([]sample, 0, 1<<14)
			wrong, wrongMsg, failMsg, marked := 0, "", "", false
			plain, traced := ctx, withTracing(ctx)
			for {
				now := time.Now()
				if !now.Before(deadline) || ctx.Err() != nil {
					break
				}
				o := g.next()
				octx, on := plain, alternate && (now.Sub(start)/traceWindow)%2 == 1
				if on {
					octx = traced
				}
				t0 := time.Now()
				got, err := do(octx, s, o)
				t1 := time.Now()
				g.done(o, err)
				local = append(local, sample{kind: o.kind, lat: t1.Sub(t0), end: t1.Sub(start), failed: err != nil, traced: on})
				if err != nil {
					if failMsg == "" {
						failMsg = fmt.Sprintf("%v %d: %v", o.kind, o.rid, err)
					}
				} else if completed.Add(1) == at.ops && at.fn != nil {
					at.fn()
					marked = true
				}
				if err == nil && o.kind == opGet && !bytes.Equal(got, o.content) {
					wrong++
					if wrongMsg == "" {
						wrongMsg = fmt.Sprintf("get %d returned %q, want %q", o.rid, got, o.content)
					}
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.wrong += wrong
			if res.wrongMsg == "" {
				res.wrongMsg = wrongMsg
			}
			if res.failMsg == "" {
				res.failMsg = failMsg
			}
			res.marked = res.marked || marked
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// do issues one op; for a get it returns the plaintext read.
func do(ctx context.Context, s store, o op) ([]byte, error) {
	switch o.kind {
	case opInsert:
		return nil, s.Insert(ctx, o.rid, o.content)
	case opSearch:
		_, err := s.Search(ctx, o.query, searchMode)
		return nil, err
	case opGet:
		return s.Get(ctx, o.rid)
	default:
		return nil, s.Delete(ctx, o.rid)
	}
}
