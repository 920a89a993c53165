package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// drawOps generates n ops for each caller of a workload, acknowledging
// every op.
func drawOps(t *testing.T, seed int64, w workload, callers, n int) ([]op, *corpus) {
	t.Helper()
	c, err := newCorpus(seed, w.preload)
	if err != nil {
		t.Fatal(err)
	}
	var out []op
	for i := 0; i < callers; i++ {
		g, err := newOpGen(c, w, i, callers)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			o := g.next()
			g.done(o, nil)
			out = append(out, o)
		}
	}
	return out, c
}

func TestOpStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		w.preload = min(w.preload, 2000)
		t.Run(w.name, func(t *testing.T) {
			a, ca := drawOps(t, 7, w, 2, 3000)
			b, cb := drawOps(t, 7, w, 2, 3000)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed gave different op streams")
			}
			if !reflect.DeepEqual(ca.preload, cb.preload) || !reflect.DeepEqual(ca.queries, cb.queries) {
				t.Fatal("same seed gave different contents or query pools")
			}
			c, cc := drawOps(t, 8, w, 2, 3000)
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds gave the same op stream")
			}
			if w.preload > 0 && reflect.DeepEqual(ca.preload, cc.preload) {
				t.Fatal("different seeds gave the same contents")
			}
		})
	}
}

func TestOpStreamFollowsMixAndOwnership(t *testing.T) {
	w, err := findWorkload("churn-durable")
	if err != nil {
		t.Fatal(err)
	}
	w.preload = 1000
	const callers, n = 2, 20000
	c, err := newCorpus(3, w.preload)
	if err != nil {
		t.Fatal(err)
	}
	var counts [numOpKinds]int
	seen := map[uint64]int{} // rid -> inserting caller
	for i := 0; i < callers; i++ {
		g, err := newOpGen(c, w, i, callers)
		if err != nil {
			t.Fatal(err)
		}
		live := map[uint64]bool{}
		for _, rid := range g.live {
			live[rid] = true
		}
		for j := 0; j < n; j++ {
			o := g.next()
			counts[o.kind]++
			switch o.kind {
			case opInsert:
				if prev, dup := seen[o.rid]; dup {
					t.Fatalf("rid %d inserted by callers %d and %d", o.rid, prev, i)
				}
				seen[o.rid] = i
				if o.rid <= uint64(w.preload) || len(o.content) == 0 {
					t.Fatalf("insert %d reuses a preloaded rid or has no content", o.rid)
				}
				live[o.rid] = true
			case opGet:
				if !live[o.rid] || !bytes.Equal(o.content, g.contentOf(o.rid)) {
					t.Fatalf("get %d of a record the caller does not hold", o.rid)
				}
			case opDelete:
				if !live[o.rid] {
					t.Fatalf("delete %d of a record the caller does not hold", o.rid)
				}
				delete(live, o.rid)
			case opSearch:
				if len(o.query) < minQueryLen {
					t.Fatalf("query %q shorter than %d", o.query, minQueryLen)
				}
			}
			g.done(o, nil)
		}
	}
	for k, pct := range w.mix {
		got := float64(counts[k]) / (callers * n) * 100
		if d := got - float64(pct); d < -1.5 || d > 1.5 {
			t.Errorf("%v: %.1f%% of ops, want about %d%%", opKind(k), got, pct)
		}
	}
}

func TestOpGenFailedWritesLeaveCheckedSets(t *testing.T) {
	w := workload{name: "t", preload: 10, mix: mix{opDelete: 50, opInsert: 50}}
	c, err := newCorpus(1, w.preload)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newOpGen(c, w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	failed := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		o := g.next()
		var err error
		if i%3 == 0 {
			err = errors.New("lost")
			failed[o.rid] = true
		}
		g.done(o, err)
	}
	for _, rid := range append(append(append([]uint64(nil), g.live...), g.deleted...), g.lost...) {
		if failed[rid] {
			t.Fatalf("rid %d had a failed write but is checked", rid)
		}
	}
}

func TestQueriesRankedByPopularity(t *testing.T) {
	a, err := newCorpus(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newCorpus(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	head := func(c *corpus) string { return fmt.Sprintf("%s", c.queries[:5]) }
	if head(a) != head(b) {
		t.Fatalf("hottest queries differ across seeds: %s vs %s", head(a), head(b))
	}
}
