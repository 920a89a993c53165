// Command perfbench is the repository's end-to-end benchmark. It
// spawns esdds-node daemons on loopback, drives them with closed-loop
// callers through the public esdds.Store API, checks every result
// against the plaintext it was generated from, and prints the
// end-to-end metrics; with -trace 1 it instead drives a span-recording
// replica of the Store's module calls and prints per-layer metrics.
// See README.md for the workloads and metric definitions.
//
//	perfbench -workload ingest -seed 1 -seconds 10 -trace 0 -node-bin esdds-node -out .bench_build
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 0 only when every correctness check passed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/esdds"
	"repro/internal/sdds"
	"repro/internal/transport"
)

// Fixed run shape.
const (
	// nodes is the daemon count of every workload.
	nodes = 3
	// maxCallers caps the closed-loop callers; never more than nproc.
	maxCallers = 2
	// A run sets the cluster up minSetups times, and more, up to
	// maxSetups, while their total stays under setupBudget; setup_s is
	// the median, and the last set-up serves the timed phase.
	minSetups   = 5
	maxSetups   = 51
	setupBudget = 2 * time.Second
	// preloadWorkers insert the preload concurrently during set-up.
	preloadWorkers = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	nodeBin  string
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: ingest, search-dispersed or churn-durable")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Int("seconds", 10, "length of the timed phase")
		trace   = fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
		nodeBin = fs.String("node-bin", "", "esdds-node binary")
		out     = fs.String("out", ".bench_build", "directory for daemon logs, data directories and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 || *nodeBin == "" || (*trace != 0 && *trace != 1) {
		return options{}, errors.New("need -seconds >= 1, -trace 0|1 and -node-bin")
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, nodeBin: *nodeBin, out: *out}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	debug.SetGCPercent(gcPercent)
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// cluster is one set-up: the daemons plus a client store over them.
type cluster struct {
	d       *daemons
	store   store
	closeFn func() error

	// Traced runs only.
	sdds  *sdds.Cluster
	retry *transport.Retry
	rec   *recorder
}

// cpu reads the client's and the daemons' CPU time.
func (c *cluster) cpu() (client, daemons time.Duration, err error) {
	if client, err = selfCPU(); err != nil {
		return 0, 0, err
	}
	daemons, err = c.d.cpu()
	return client, daemons, err
}

func (c *cluster) close() {
	if c.closeFn != nil {
		c.closeFn() //nolint:errcheck // tearing down; the daemons are stopped next
	}
	c.d.stop()
}

// setUp spawns the daemons, dials them, opens the store and inserts
// the preload. Its duration is what setup_s measures.
func setUp(ctx context.Context, opt options, c *corpus, i int) (*cluster, error) {
	w := opt.workload
	logDir := filepath.Join(opt.out, "logs", w.name)
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(opt.out, "data", w.name+"-"+strconv.Itoa(i))
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	d, err := startDaemons(ctx, opt.nodeBin, nodes, logDir, dataDir, opt.trace)
	if err != nil {
		return nil, err
	}
	cl := &cluster{d: d}
	// The key is configuration, like the geometry, and stays fixed: under
	// MatrixRandom the per-site selectivity of the dispersed pieces, and
	// with it the cost of a search, depends on the key (see README.md).
	key := esdds.KeyFromPassphrase("perfbench")
	if opt.trace {
		sc, retry, err := newTracedCluster(d.addrs, opt.seed)
		if err != nil {
			d.stop()
			return nil, err
		}
		cl.sdds, cl.retry, cl.rec = sc, retry, newRecorder()
		cl.closeFn = retry.Close
		if cl.store, err = openTraced(sc, key, w.cfg, cl.rec); err != nil {
			cl.close()
			return nil, err
		}
	} else {
		addrs := make(map[int]string, len(d.addrs))
		for i, a := range d.addrs {
			addrs[i] = a
		}
		ec, err := esdds.DialCluster(addrs, esdds.WithDefaultRetry(), esdds.WithRetrySeed(opt.seed))
		if err != nil {
			d.stop()
			return nil, err
		}
		cl.closeFn = ec.Close
		if cl.store, err = esdds.Open(ec, key, w.cfg, nil); err != nil {
			cl.close()
			return nil, err
		}
	}
	if err := preload(ctx, cl.store, c); err != nil {
		cl.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return cl, nil
}

// preload inserts RIDs 1..len(c.preload) from preloadWorkers
// goroutines.
func preload(ctx context.Context, s store, c *corpus) error {
	return fan(len(c.preload), preloadWorkers, func(i int) error {
		if err := s.Insert(ctx, uint64(i+1), c.preload[i]); err != nil {
			return fmt.Errorf("insert %d: %w", i+1, err)
		}
		return nil
	})
}

// bench runs one workload once: set-up (several times), the timed
// closed loop, the correctness checks, and the metrics.
func bench(ctx context.Context, opt options, stdout io.Writer) (*result, error) {
	w := opt.workload
	callers := min(maxCallers, runtime.NumCPU())
	aesNS := aesBlockNS()
	c, err := newCorpus(opt.seed, w.preload)
	if err != nil {
		return nil, err
	}

	var (
		cl         *cluster
		setupDurs  []float64
		setupTotal time.Duration
	)
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < setupBudget); i++ {
		if cl != nil {
			cl.close()
		}
		t0 := time.Now()
		if cl, err = setUp(ctx, opt, c, i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		d := time.Since(t0)
		setupTotal += d
		setupDurs = append(setupDurs, d.Seconds())
	}
	defer cl.close()

	gens := make([]*opGen, callers)
	for i := range gens {
		if gens[i], err = newOpGen(c, w, i, callers); err != nil {
			return nil, err
		}
	}

	var before, after nodeCounters
	if opt.trace {
		if before, err = scrapeAll(ctx, cl.d.metricsURL); err != nil {
			return nil, err
		}
	}
	splits0, iams0 := splitsIAMs(cl)
	retries0, fails0 := retryCounts(cl)
	clientCPU0, nodeCPU0, err := cl.cpu()
	if err != nil {
		return nil, err
	}

	var (
		rss    int64
		rssErr error
	)
	readRSS := func() { rss, rssErr = cl.d.peakRSS() }
	lr := runLoop(ctx, cl.store, gens, opt.seconds, opt.trace, func() (time.Duration, error) {
		cc, nc, err := cl.cpu()
		return cc + nc, err
	}, mark{ops: w.rssAtOps, fn: readRSS})
	if lr.cpuErr != nil {
		return nil, lr.cpuErr
	}
	if !lr.marked {
		readRSS()
	}
	if rssErr != nil {
		return nil, rssErr
	}

	clientCPU1, nodeCPU1, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	splits1, iams1 := splitsIAMs(cl)
	retries1, fails1 := retryCounts(cl)
	if opt.trace {
		if after, err = scrapeAll(ctx, cl.d.metricsURL); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	chk := runChecks(ctx, cl.store, c, gens)
	if lr.wrong > 0 {
		chk.corrupt += lr.wrong
		if chk.first == "" {
			chk.first = lr.wrongMsg
		}
	}

	ls := summarizeLoop(lr, opt.seconds)
	// The workloads issue no op bound to fail, so any failed op fails
	// the run.
	correct := chk.ok() && ls.failed == 0
	res := &result{Correct: correct, Attempted: ls.attempted, Failed: ls.failed, Metrics: map[string]jsonMetric{}}

	fmt.Fprintf(stdout, "workload %s seed %d: %d callers, %d nodes, %d set-ups (min %.3f, median %.3f, max %.3f s), %.1f s timed, trace=%v\n",
		w.name, opt.seed, callers, nodes, len(setupDurs), slices.Min(setupDurs), median(setupDurs), slices.Max(setupDurs), lr.elapsed.Seconds(), opt.trace)
	fmt.Fprintf(stdout, "checks: %d live read back (%d missing, %d corrupt), %d deleted probed (%d ghosts), %d searches (%d misses, %d of %d hits false), %d errors\n",
		chk.live, chk.missing, chk.corrupt, chk.deleted, chk.ghosts, chk.searches, chk.misses, chk.falseHits, chk.returned, chk.errors)
	if !chk.ok() {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", chk.first)
	}
	if ls.failed > 0 {
		fmt.Fprintf(stdout, "CHECK FAILED: %d of %d ops failed in the timed phase, first: %s\n", ls.failed, ls.attempted, lr.failMsg)
	}

	var shown []metric
	if !opt.trace {
		if lr.marked {
			fmt.Fprintf(stdout, "node_peak_rss_mib read at %d completed ops\n", w.rssAtOps)
		} else {
			fmt.Fprintf(stdout, "node_peak_rss_mib read at the end of the phase: fewer than %d ops completed\n", w.rssAtOps)
		}
		e2e := []metric{
			{"setup_s", "s", median(setupDurs)},
			{"ops_per_s", "1/s", ls.opsPerS},
			{"op_p50_ms", "ms", ls.p50},
			{"op_p90_ms", "ms", ls.p90},
			{"cpu_ms_per_op", "ms", ls.cpuMSPerOp},
			{"node_peak_rss_mib", "MiB", float64(rss) / (1 << 20)},
		}
		for _, m := range e2e {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
		shown = append(shown, e2e...)
		shown = append(shown, metric{"op_p99_ms", "ms", ls.all.p99}, metric{"op_count", "count", float64(ls.all.n)})
		for k := opKind(0); k < numOpKinds; k++ {
			if !w.runs(k) {
				continue
			}
			st := ls.byKind[k]
			shown = append(shown,
				metric{k.String() + "_p50_ms", "ms", st.p50},
				metric{k.String() + "_p99_ms", "ms", st.p99},
				metric{k.String() + "_count", "count", float64(st.n)})
		}
		shown = append(shown,
			metric{"error_rate", "ratio", perOp(float64(ls.failed), ls.attempted)},
			metric{"search_fp_ratio", "ratio", chk.fpRatio()},
			metric{"host.aes_block_ns", "ns", aesNS})
	} else {
		in := layerInputs{
			trace:       summarize(cl.rec.take()),
			overheadPct: ls.overheadPct(),
			ops:         ls.opsByKind(),
			nodes:       delta(before, after),
			nodeCPUms:   float64(nodeCPU1-nodeCPU0) / 1e6,
			clientCPUms: float64(clientCPU1-clientCPU0) / 1e6,
			splits:      splits1 - splits0,
			iams:        iams1 - iams0,
			retries:     retries1 - retries0,
			failedTries: fails1 - fails0,
			aesBlockNS:  aesNS,
		}
		if cl.d.dataDir != "" {
			if in.diskBytes, err = dirBytes(cl.d.dataDir); err != nil {
				return nil, err
			}
			in.userBytes = liveBytes(gens)
		}
		for _, m := range layerMetrics(in) {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
			shown = append(shown, m)
		}
		if err := writeSpans(filepath.Join(opt.out, "spans-"+w.name+".jsonl"), cl.rec.take()); err != nil {
			return nil, err
		}
	}
	for _, m := range shown {
		fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return res, nil
}

// splitsIAMs reads the client's split and IAM counters, both files
// summed. Only the traced driver exposes them.
func splitsIAMs(cl *cluster) (splits, iams int) {
	if cl.sdds == nil {
		return 0, 0
	}
	for _, f := range []sdds.FileID{sdds.FileRecords, sdds.FileIndex} {
		s, i := cl.sdds.Stats(f)
		splits += s
		iams += i
	}
	return splits, iams
}

// retryCounts sums the retry layer's retries and failed attempts.
func retryCounts(cl *cluster) (retries, failures uint64) {
	if cl.retry == nil {
		return 0, 0
	}
	for _, ns := range cl.retry.Stats() {
		retries += ns.Retries
		failures += ns.Failures
	}
	return retries, failures
}

// liveBytes is the plaintext size of every record the generators hold
// live.
func liveBytes(gens []*opGen) int64 {
	var n int64
	for _, g := range gens {
		for _, rid := range g.live {
			n += int64(len(g.contentOf(rid)))
		}
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
