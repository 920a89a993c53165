package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/esdds"
)

// newMemoryStore opens an esdds.Store over an in-memory cluster and
// inserts the corpus preload.
func newMemoryStore(t *testing.T, c *corpus) *esdds.Store {
	t.Helper()
	s, err := esdds.Open(esdds.NewMemoryCluster(3), esdds.KeyFromPassphrase("checks"), soakGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := preload(context.Background(), s, c); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpGenNotFoundIsLoss(t *testing.T) {
	w := workload{name: "t", preload: 40, mix: mix{opGet: 50, opDelete: 50}}
	c, err := newCorpus(1, w.preload)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newOpGen(c, w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	notFound := fmt.Errorf("node 1: %w", esdds.ErrNotFound)
	for _, want := range []opKind{opGet, opDelete} {
		o := g.next()
		for o.kind != want {
			g.done(o, nil)
			o = g.next()
		}
		g.done(o, notFound)
		if !slices.Contains(g.lost, o.rid) {
			t.Fatalf("%v %d: ErrNotFound did not mark the record lost", o.kind, o.rid)
		}
		if slices.Contains(g.live, o.rid) || slices.Contains(g.deleted, o.rid) {
			t.Fatalf("%v %d: lost record still in live or deleted", o.kind, o.rid)
		}
	}
}

// TestChecksFailOnLostRecords loses records behind the callers' backs
// and requires the checks to report them: one the final read-back
// finds, one a timed-phase delete found.
func TestChecksFailOnLostRecords(t *testing.T) {
	ctx := context.Background()
	w := workload{name: "t", preload: 200, mix: mix{opDelete: 100}}
	c, err := newCorpus(2, w.preload)
	if err != nil {
		t.Fatal(err)
	}
	s := newMemoryStore(t, c)
	g, err := newOpGen(c, w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chk := runChecks(ctx, s, c, []*opGen{g}); !chk.ok() || chk.live != w.preload {
		t.Fatalf("intact store: %+v", chk)
	}

	o := g.next()
	if err := s.Delete(ctx, o.rid); err != nil {
		t.Fatal(err)
	}
	_, err = do(ctx, s, o)
	if !errors.Is(err, esdds.ErrNotFound) {
		t.Fatalf("delete of a lost record returned %v", err)
	}
	g.done(o, err)
	if err := s.Delete(ctx, g.live[0]); err != nil {
		t.Fatal(err)
	}

	chk := runChecks(ctx, s, c, []*opGen{g})
	if chk.ok() || chk.missing != 2 || chk.errors != 0 {
		t.Fatalf("two lost records: %+v", chk)
	}
}

func TestFan(t *testing.T) {
	var calls [100]atomic.Int32
	if err := fan(len(calls), 4, func(i int) error { calls[i].Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}

	boom := errors.New("boom")
	var ran atomic.Int32
	err := fan(1000, 4, func(i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran.Load() == 1000 {
		t.Fatalf("fan returned %v after %d calls, want boom and an early stop", err, ran.Load())
	}
}

func TestRunLoopMark(t *testing.T) {
	w := workload{name: "t", preload: 50, mix: mix{opGet: 100}}
	c, err := newCorpus(3, w.preload)
	if err != nil {
		t.Fatal(err)
	}
	s := newMemoryStore(t, c)
	g, err := newOpGen(c, w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int32
	lr := runLoop(context.Background(), s, []*opGen{g}, 1, false,
		func() (time.Duration, error) { return 0, nil },
		mark{ops: 20, fn: func() { fired.Add(1) }})
	if !lr.marked || fired.Load() != 1 || len(lr.samples) < 20 {
		t.Fatalf("marked %v, fired %d times, %d ops", lr.marked, fired.Load(), len(lr.samples))
	}
}
