package main

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/esdds"
	"repro/internal/sdds"
	"repro/internal/transport"
)

// newMemoryTraced builds the traced driver over an in-memory cluster of
// n nodes, wired the way esdds.NewMemoryCluster wires its own.
func newMemoryTraced(t *testing.T, n int, cfg esdds.Config, key esdds.Key) (*tracedStore, *recorder) {
	t.Helper()
	mem := transport.NewMemory()
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	place, err := sdds.NewPlacement(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		mem.Register(id, sdds.NewNode(id, mem, place).Handler())
	}
	rec := newRecorder()
	st, err := openTraced(sdds.NewCluster(&spanTransport{inner: mem}, place), key, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// TestTracedDriverMatchesStore drives one op stream through esdds.Store
// and through the traced driver, tracing every other op, and requires
// identical Get and Search results.
func TestTracedDriverMatchesStore(t *testing.T) {
	key := esdds.KeyFromPassphrase("equivalence")
	for _, w := range workloads {
		w := w
		w.preload = 300
		w.mix = mix{opInsert: 40, opSearch: 30, opGet: 15, opDelete: 15}
		w.cfg.MaxBucketLoad = 64 // force splits into the stream
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			ref, err := esdds.Open(esdds.NewMemoryCluster(3), key, w.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, rec := newMemoryTraced(t, 3, w.cfg, key)
			c, err := newCorpus(5, w.preload)
			if err != nil {
				t.Fatal(err)
			}
			for i, content := range c.preload {
				for _, s := range []store{ref, traced} {
					if err := s.Insert(ctx, uint64(i+1), content); err != nil {
						t.Fatal(err)
					}
				}
			}
			g, err := newOpGen(c, w, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				o := g.next()
				tctx := ctx
				if i%2 == 1 {
					tctx = withTracing(ctx)
				}
				want, werr := doResult(ctx, ref, o)
				got, gerr := doResult(tctx, traced, o)
				if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d (%v rid %d query %q): traced %v, %v; store %v, %v", i, o.kind, o.rid, o.query, got, gerr, want, werr)
				}
				if o.kind == opGet && !bytes.Equal(got.([]byte), o.content) {
					t.Fatalf("get %d: %q, want %q", o.rid, got, o.content)
				}
				g.done(o, werr)
			}
			for _, rid := range g.deleted {
				_, err := traced.Get(ctx, rid)
				if !errors.Is(err, esdds.ErrNotFound) {
					t.Fatalf("deleted %d: traced get returned %v", rid, err)
				}
			}
			s := summarize(rec.take())
			if s.totalOps() != 750 || s.span("sdds.search").n == 0 || s.rpcs[opInsert] == 0 {
				t.Fatalf("traced %d ops, %d sdds searches, %d insert rpcs", s.totalOps(), s.span("sdds.search").n, s.rpcs[opInsert])
			}
		})
	}
}

// doResult runs one op and returns what a caller observes: the
// plaintext for a get, the result set for a search.
func doResult(ctx context.Context, s store, o op) (any, error) {
	if o.kind == opSearch {
		rids, err := s.Search(ctx, o.query, searchMode)
		return rids, err
	}
	got, err := do(ctx, s, o)
	if o.kind != opGet {
		return nil, err
	}
	return got, err
}
