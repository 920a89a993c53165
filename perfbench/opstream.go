package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/esdds"
	"repro/internal/loadgen"
	"repro/internal/phonebook"
)

// Query pool shape, as in the soak profiles: 512 distinct surnames of at
// least 7 symbols with zipfian (s=1.1) popularity.
const (
	queryPool   = 512
	zipfS       = 1.1
	minQueryLen = 7
	// popularitySample phonebook entries rank the query pool.
	popularitySample = 1 << 16
)

// corpus is the seeded input source every op generator and every check
// shares: loadgen's phonebook corpus (record contents by dense RID,
// starting at 1) and its zipfian surname query pool. It is read-only
// after construction.
type corpus struct {
	seed    int64
	preload [][]byte // contents of RIDs 1..len(preload)
	queries [][]byte
	zipf    *loadgen.Zipf
}

func newCorpus(seed int64, preload int) (*corpus, error) {
	c := &corpus{seed: seed}
	st, err := c.newStream()
	if err != nil {
		return nil, err
	}
	c.queries = byPopularity(st.Queries())
	if c.zipf, err = loadgen.NewZipf(len(c.queries), zipfS); err != nil {
		return nil, err
	}
	c.preload = make([][]byte, preload)
	for i := range c.preload {
		c.preload[i] = st.ContentOf(uint64(i + 1))
	}
	return c, nil
}

// byPopularity orders a query pool by how often each surname occurs
// in a fixed-seed phonebook sample, most frequent first, so zipfian
// rank follows name frequency and the hottest queries are the same
// names in every run. loadgen ranks its pool by first appearance in a
// seeded sample, which moves the hottest queries, and with them most of
// a run's search cost, from seed to seed.
func byPopularity(pool [][]byte) [][]byte {
	freq := map[string]int{}
	for _, e := range phonebook.Generate(popularitySample, 0) {
		freq[e.LastName()]++
	}
	out := append([][]byte(nil), pool...)
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := freq[string(out[i])], freq[string(out[j])]
		if fi != fj {
			return fi > fj
		}
		return bytes.Compare(out[i], out[j]) < 0
	})
	return out
}

// newStream returns a loadgen stream over the corpus. Only its
// ContentOf and Queries are used; each user needs its own, because the
// stream's content cache is not safe for concurrent use.
func (c *corpus) newStream() (*loadgen.Stream, error) {
	return loadgen.NewStream(loadgen.StreamConfig{
		Seed: c.seed, Ops: 1, QueryPool: queryPool, ZipfS: zipfS, MinQueryLen: minQueryLen,
	})
}

// op is one generated store operation.
type op struct {
	kind opKind
	rid  uint64
	// content is the record body for an insert and the expected
	// plaintext for a get.
	content []byte
	query   []byte
}

// opGen is one closed-loop caller's deterministic op stream. Callers
// own disjoint RIDs: caller c of n starts with the preloaded RIDs r
// where (r-1) mod n == c and inserts RIDs preload+1+c, +n, +2n, …, and
// it gets and deletes only records it owns. So no caller's op depends
// on another caller's timing, and with every op acknowledged the stream
// is a pure function of (seed, workload, caller).
type opGen struct {
	c      *corpus
	stream *loadgen.Stream
	rng    *rand.Rand
	cum    [numOpKinds]int

	nextRID, stride uint64
	live            []uint64
	inserted        map[uint64][]byte // contents of RIDs inserted by this caller
	deleted         []uint64          // acknowledged deletes
	// lost holds acknowledged-live RIDs a timed-phase get or delete
	// found absent: records the cluster lost.
	lost []uint64
}

func newOpGen(c *corpus, w workload, caller, callers int) (*opGen, error) {
	st, err := c.newStream()
	if err != nil {
		return nil, err
	}
	g := &opGen{
		c:        c,
		stream:   st,
		rng:      rand.New(rand.NewSource(c.seed*1_000_003 + int64(caller)*7_919 + 1)),
		nextRID:  uint64(len(c.preload) + 1 + caller),
		stride:   uint64(callers),
		inserted: make(map[uint64][]byte),
	}
	total := 0
	for k, pct := range w.mix {
		total += pct
		g.cum[k] = total
	}
	if total != 100 {
		return nil, fmt.Errorf("workload %s: mix sums to %d, want 100", w.name, total)
	}
	for rid := uint64(caller + 1); rid <= uint64(len(c.preload)); rid += g.stride {
		g.live = append(g.live, rid)
	}
	return g, nil
}

// removeLive takes live[i] out of the live set, swapping the last
// entry into its place.
func (g *opGen) removeLive(i int) uint64 {
	rid := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return rid
}

// contentOf returns the plaintext of a record this caller owns.
func (g *opGen) contentOf(rid uint64) []byte {
	if rid <= uint64(len(g.c.preload)) {
		return g.c.preload[rid-1]
	}
	return g.inserted[rid]
}

// next draws the next op. A get or delete with nothing live to target
// becomes an insert, so the stream never issues an op bound to fail.
func (g *opGen) next() op {
	r := g.rng.Intn(100)
	kind := opInsert
	for k := opKind(0); k < numOpKinds; k++ {
		if r < g.cum[k] {
			kind = k
			break
		}
	}
	if (kind == opGet || kind == opDelete) && len(g.live) == 0 {
		kind = opInsert
	}
	switch kind {
	case opSearch:
		return op{kind: opSearch, query: g.c.queries[g.c.zipf.Sample(g.rng)]}
	case opGet:
		rid := g.live[g.rng.Intn(len(g.live))]
		return op{kind: opGet, rid: rid, content: g.contentOf(rid)}
	case opDelete:
		// Claimed now so no later op targets it; done settles its fate.
		rid := g.removeLive(g.rng.Intn(len(g.live)))
		return op{kind: opDelete, rid: rid}
	default:
		rid := g.nextRID
		g.nextRID += g.stride
		content := g.stream.ContentOf(rid)
		g.inserted[rid] = content
		return op{kind: opInsert, rid: rid, content: content}
	}
}

// done records the acknowledged outcome of an op, keeping the caller's
// view of what the cluster owes it exact. ErrNotFound on a get or
// delete is definitive: the record was acknowledged live, so the
// cluster lost it. Any other failed write has an unknown effect, so its
// record leaves the checked sets; the failure fails the run anyway.
func (g *opGen) done(o op, err error) {
	notFound := errors.Is(err, esdds.ErrNotFound)
	switch o.kind {
	case opInsert:
		if err == nil {
			g.live = append(g.live, o.rid)
		}
	case opGet:
		if notFound {
			g.removeLive(slices.Index(g.live, o.rid))
			g.lost = append(g.lost, o.rid)
		}
	case opDelete:
		switch {
		case notFound:
			g.lost = append(g.lost, o.rid)
		case err == nil:
			g.deleted = append(g.deleted, o.rid)
		}
	}
}
