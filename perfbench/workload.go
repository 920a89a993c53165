package main

import (
	"fmt"

	"repro/esdds"
)

// opKind is one kind of store operation the closed loop issues.
type opKind uint8

const (
	opInsert opKind = iota
	opSearch
	opGet
	opDelete
	numOpKinds
)

var opKindNames = [numOpKinds]string{"insert", "search", "get", "delete"}

func (k opKind) String() string { return opKindNames[k] }

// mix is the share of each op kind in percent, indexed by opKind.
type mix [numOpKinds]int

// workload is one traffic mix over one cluster configuration.
type workload struct {
	name string
	// cfg is the store geometry every client of the run opens with.
	cfg esdds.Config
	// preload records are inserted during set-up, before timing starts.
	preload int
	// durable gives every daemon a -data-dir on local disk (per-append
	// fsync, the daemon default); otherwise the daemons are in-memory.
	durable bool
	mix     mix
	// rssAtOps is the completed-op count of the timed phase at which
	// node_peak_rss_mib is read, so that it reflects memory for a fixed
	// amount of work rather than for however many ops a run completed.
	rssAtOps int64
}

// soakGeometry is the K=1 layout the soak profiles run (S=4, M=4,
// bucket capacity 512).
var soakGeometry = esdds.Config{ChunkSize: 4, Chunkings: 4, DispersionSites: 1, MaxBucketLoad: 512}

// paperGeometry is the paper's Stage-3 dispersal layout (Figure 3 and
// examples/securecluster): S=4, M=2, each chunking spread over K=4
// sites with a key-derived random matrix.
var paperGeometry = esdds.Config{ChunkSize: 4, Chunkings: 2, DispersionSites: 4, Matrix: esdds.MatrixRandom, MaxBucketLoad: 512}

// workloads are the benchmark's traffic mixes. BENCHMARK.json and
// README.md say why each was chosen and which layers it loads.
var workloads = []workload{
	{
		name:     "ingest",
		cfg:      soakGeometry,
		mix:      mix{opInsert: 100},
		rssAtOps: 20000,
	},
	{
		name:     "search-dispersed",
		cfg:      paperGeometry,
		preload:  20000,
		mix:      mix{opSearch: 80, opGet: 20},
		rssAtOps: 2000,
	},
	{
		name: "churn-durable",
		cfg:  soakGeometry,
		// Smaller than the other preload: every set-up journals and
		// fsyncs the whole preload, and a run sets up five times for a
		// steady setup_s. On a host with a busy disk one
		// 20,000-record set-up took 36 s.
		preload:  8000,
		durable:  true,
		mix:      mix{opSearch: 40, opGet: 10, opInsert: 30, opDelete: 20},
		rssAtOps: 20000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runs reports whether the workload's mix includes the op kind.
func (w workload) runs(k opKind) bool { return w.mix[k] > 0 }
