package main

import (
	"repro/internal/sdds"
)

// spanStats accumulates one span name's durations and self times.
type spanStats struct {
	n         int
	dur, self int64 // ns
}

func (s spanStats) meanUS(self bool) float64 {
	if s.n == 0 {
		return 0
	}
	v := s.dur
	if self {
		v = s.self
	}
	return float64(v) / float64(s.n) / 1e3
}

// wireStats accumulates the wire spans of one opcode class.
type wireStats struct {
	n                   int
	dur                 int64
	reqBytes, respBytes int64
}

// traceSummary is what the recorded traces say, layer by layer.
type traceSummary struct {
	ops      [numOpKinds]int
	spans    map[string]*spanStats
	wire     map[string]*wireStats
	rpcs     [numOpKinds]int // wire spans per root op kind
	rootDur  int64
	rootSelf int64
	// migrationNS is the wire time of split and merge steps.
	migrationNS                             int64
	indexRecords, indexBytes, queryPatterns int
}

func (s *traceSummary) span(name string) *spanStats {
	st := s.spans[name]
	if st == nil {
		st = &spanStats{}
		s.spans[name] = st
	}
	return st
}

// summarize folds the traces into per-layer totals. Each span's self
// time is its duration minus the union of its children's intervals.
func summarize(traces []*opTrace) *traceSummary {
	s := &traceSummary{spans: map[string]*spanStats{}, wire: map[string]*wireStats{}}
	var children [][][2]int64
	for _, t := range traces {
		s.ops[t.kind]++
		s.indexRecords += t.indexRecords
		s.indexBytes += t.indexBytes
		s.queryPatterns += t.queryPatterns
		children = children[:0]
		for range t.spans {
			children = append(children, nil)
		}
		for _, sp := range t.spans {
			if sp.parent >= 0 {
				children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
			}
		}
		for i, sp := range t.spans {
			if sp.wire {
				cls := wireClass(sdds.OpName(sp.wireOp))
				w := s.wire[cls]
				if w == nil {
					w = &wireStats{}
					s.wire[cls] = w
				}
				w.n++
				w.dur += sp.dur()
				w.reqBytes += int64(sp.reqBytes)
				w.respBytes += int64(sp.respBytes)
				if cls == "migrate" {
					s.migrationNS += sp.dur()
				}
				s.rpcs[t.kind]++
				continue
			}
			self := selfTime(sp.start, sp.end, children[i])
			st := s.span(sp.name)
			st.n++
			st.dur += sp.dur()
			st.self += self
			if i == 0 {
				s.rootDur += sp.dur()
				s.rootSelf += self
			}
		}
	}
	return s
}

func (s *traceSummary) totalOps() int {
	n := 0
	for _, c := range s.ops {
		n += c
	}
	return n
}

// perOp divides by a count, reading 0 when nothing was counted.
func perOp[N int | int64 | float64](v float64, n N) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	trace *traceSummary
	// overheadPct compares the traced and untraced windows' mean
	// latency.
	overheadPct float64
	// Whole timed phase, both window kinds.
	ops                    [numOpKinds]int
	nodes                  nodeCounters // /metrics deltas summed over daemons
	nodeCPUms, clientCPUms float64
	splits, iams           int
	retries, failedTries   uint64
	diskBytes, userBytes   int64
	aesBlockNS             float64
}

// layerMetrics computes the per-layer metrics, in BENCHMARK.json order.
func layerMetrics(in layerInputs) []metric {
	t := in.trace
	allOps := 0
	for _, c := range in.ops {
		allOps += c
	}
	var m []metric
	add := func(name, unit string, v float64) { m = append(m, metric{name, unit, v}) }

	for k := opKind(0); k < numOpKinds; k++ {
		add("esdds."+k.String()+"_us", "us", t.span("esdds."+k.String()).meanUS(false))
	}
	add("trace.attributed_share", "ratio", perOp(float64(t.rootDur-t.rootSelf), t.rootDur))
	add("trace.overhead_pct", "%", in.overheadPct)

	add("core.build_index_us", "us", t.span("core.build_index").meanUS(false))
	add("core.build_query_us", "us", t.span("core.build_query").meanUS(false))
	add("core.index_records_per_insert", "count/op", perOp(float64(t.indexRecords), t.ops[opInsert]))
	add("core.index_bytes_per_insert", "B/op", perOp(float64(t.indexBytes), t.ops[opInsert]))
	add("core.query_patterns_per_search", "count/op", perOp(float64(t.queryPatterns), t.ops[opSearch]))

	add("cipherx.seal_us", "us", t.span("cipherx.seal").meanUS(false))
	add("cipherx.open_us", "us", t.span("cipherx.open").meanUS(false))

	for _, name := range []string{"put", "insert_indexed", "search", "get", "delete", "delete_indexed"} {
		add("sdds."+name+"_self_us", "us", t.span("sdds."+name).meanUS(true))
	}
	add("sdds.rpcs_per_insert", "count/op", perOp(float64(t.rpcs[opInsert]), t.ops[opInsert]))
	add("sdds.rpcs_per_search", "count/op", perOp(float64(t.rpcs[opSearch]), t.ops[opSearch]))
	add("sdds.rpcs_per_delete", "count/op", perOp(float64(t.rpcs[opDelete]), t.ops[opDelete]))
	add("sdds.splits_per_kinsert", "count/kop", 1e3*perOp(float64(in.splits), in.ops[opInsert]))
	add("sdds.iams_per_kop", "count/kop", 1e3*perOp(float64(in.iams), allOps))
	add("sdds.migration_us_per_insert", "us", perOp(float64(t.migrationNS)/1e3, t.ops[opInsert]))

	var req, resp int64
	for _, cls := range wireClasses {
		w := t.wire[cls]
		rtt := 0.0
		if w != nil {
			rtt = float64(w.dur) / float64(w.n) / 1e3
		}
		add("transport.rtt_us."+cls, "us", rtt)
	}
	for _, cls := range wireClasses {
		wire := 0.0
		if w := t.wire[cls]; w != nil {
			wire = float64(w.dur)/float64(w.n)/1e3 - in.nodes.handlerMeanUS(cls)
		}
		add("transport.wire_us."+cls, "us", wire)
	}
	for _, w := range t.wire {
		req += w.reqBytes
		resp += w.respBytes
	}
	add("transport.req_bytes_per_op", "B/op", perOp(float64(req), t.totalOps()))
	add("transport.resp_bytes_per_op", "B/op", perOp(float64(resp), t.totalOps()))
	add("transport.retries", "count", float64(in.retries))
	add("transport.failed_attempts", "count", float64(in.failedTries))

	for _, cls := range wireClasses {
		add("node.handler_us."+cls, "us", in.nodes.handlerMeanUS(cls))
	}
	add("node.handler_ms_per_op", "ms", perOp(in.nodes.handlerNS()/1e6, allOps))
	add("node.forwards_per_kop", "count/kop", 1e3*perOp(in.nodes["node_forwards_total"], allOps))
	add("node.op_errors", "count", in.nodes["node_op_errors_total"])
	add("node.cpu_ms_per_op", "ms", perOp(in.nodeCPUms, allOps))
	add("client.cpu_ms_per_op", "ms", perOp(in.clientCPUms, allOps))

	searches := in.ops[opSearch]
	add("posting.candidates_per_search", "count/op", perOp(in.nodes["node_posting_candidates_total"], searches))
	add("posting.verified_per_candidate", "ratio", perOp(in.nodes["node_posting_verified_total"], in.nodes["node_posting_candidates_total"]))
	add("posting.hits_per_search", "count/op", perOp(in.nodes["node_search_hits_total"], searches))
	add("posting.tombstones_per_kop", "count/kop", 1e3*perOp(in.nodes["node_index_tombstones_total"], allOps))
	add("posting.compactions_per_kop", "count/kop", 1e3*perOp(in.nodes["node_index_compactions_total"], allOps))

	add("wal.appends_per_op", "count/op", perOp(in.nodes["wal_appends_total"], allOps))
	add("wal.append_us", "us", in.nodes.meanUS("wal_append_ns"))
	add("wal.fsyncs_per_op", "count/op", perOp(in.nodes["wal_fsyncs_total"], allOps))
	add("wal.fsync_us", "us", in.nodes.meanUS("wal_fsync_ns"))
	add("wal.checkpoints", "count", in.nodes["wal_checkpoints_total"])
	add("wal.disk_bytes_per_user_byte", "B/B", perOp(float64(in.diskBytes), in.userBytes))

	add("host.aes_block_ns", "ns", in.aesBlockNS)
	return m
}
