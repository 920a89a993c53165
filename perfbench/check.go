package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/esdds"
)

// checkWorkers is the number of concurrent readers of the untimed
// correctness checks.
const checkWorkers = 8

// checkedSearches is how many pool queries the checks search: the 32
// most popular ranks and 32 spread over the rest of the pool.
const checkedSearches = 64

// checkResult is the verdict of the correctness checks run after the
// timed phase.
type checkResult struct {
	live, missing, corrupt int
	deleted, ghosts        int
	searches, misses       int
	// returned and falseHits count search results, against the
	// plaintext ground truth.
	returned, falseHits int
	errors              int
	first               string
}

func (c *checkResult) ok() bool {
	return c.missing == 0 && c.corrupt == 0 && c.ghosts == 0 && c.misses == 0 && c.errors == 0
}

// fpRatio is false hits over returned hits of the checked searches.
func (c *checkResult) fpRatio() float64 {
	if c.returned == 0 {
		return 0
	}
	return float64(c.falseHits) / float64(c.returned)
}

// runChecks reads back every record the generators saw acknowledged
// live and compares it with its plaintext, probes every acknowledged
// delete for a ghost, and checks that each checked search returns a
// superset of the plaintext matches among live records. Records the
// timed phase found lost count as missing.
func runChecks(ctx context.Context, s store, c *corpus, gens []*opGen) checkResult {
	type item struct {
		rid  uint64
		want []byte // nil: must be absent
	}
	var (
		items []item
		live  = map[uint64][]byte{}
	)
	for _, g := range gens {
		for _, rid := range g.live {
			items = append(items, item{rid, g.contentOf(rid)})
			live[rid] = g.contentOf(rid)
		}
		for _, rid := range g.deleted {
			items = append(items, item{rid: rid})
		}
	}
	var (
		mu  sync.Mutex
		res checkResult
	)
	problem := func(format string, args ...any) {
		if res.first == "" {
			res.first = fmt.Sprintf(format, args...)
		}
	}
	for _, g := range gens {
		for _, rid := range g.lost {
			res.live++
			res.missing++
			problem("live record %d not found in the timed phase", rid)
		}
	}
	fan(len(items), checkWorkers, func(i int) error {
		it := items[i]
		got, err := s.Get(ctx, it.rid)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case it.want == nil:
			res.deleted++
			if err == nil {
				res.ghosts++
				problem("deleted record %d still readable", it.rid)
			} else if !errors.Is(err, esdds.ErrNotFound) {
				res.errors++
				problem("probe of deleted record %d: %v", it.rid, err)
			}
		case errors.Is(err, esdds.ErrNotFound):
			res.live++
			res.missing++
			problem("live record %d missing", it.rid)
		case err != nil:
			res.live++
			res.errors++
			problem("get %d: %v", it.rid, err)
		default:
			res.live++
			if !bytes.Equal(got, it.want) {
				res.corrupt++
				problem("record %d reads %q, want %q", it.rid, got, it.want)
			}
		}
		return nil
	})

	queries := checkQueries(c.queries)
	fan(len(queries), checkWorkers, func(i int) error {
		q := queries[i]
		rids, err := s.Search(ctx, q, searchMode)
		truth := map[uint64]bool{}
		for rid, content := range live {
			if bytes.Contains(content, q) {
				truth[rid] = true
			}
		}
		mu.Lock()
		defer mu.Unlock()
		res.searches++
		if err != nil {
			res.errors++
			problem("search %q: %v", q, err)
			return nil
		}
		got := map[uint64]bool{}
		for _, rid := range rids {
			got[rid] = true
			res.returned++
			if !truth[rid] {
				res.falseHits++
			}
		}
		for rid := range truth {
			if !got[rid] {
				res.misses++
				problem("search %q misses record %d", q, rid)
			}
		}
		return nil
	})
	return res
}

// checkQueries picks the checked searches from the rank-ordered pool.
func checkQueries(pool [][]byte) [][]byte {
	if len(pool) <= checkedSearches {
		return pool
	}
	head := checkedSearches / 2
	out := append([][]byte(nil), pool[:head]...)
	rest := pool[head:]
	for i := 0; i < checkedSearches-head; i++ {
		out = append(out, rest[i*len(rest)/(checkedSearches-head)])
	}
	return out
}

// fan runs fn(0..n-1) on the given number of goroutines and returns
// the first error; after it no further index is started.
func fan(n, workers int, fn func(int) error) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
		stop  = make(chan struct{})
		next  = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					once.Do(func() { first = err; close(stop) })
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-stop:
			break feed
		}
	}
	close(next)
	wg.Wait()
	return first
}
