package main

import (
	"context"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sdds"
)

// nodeCounters is the sum over all daemons of their /metrics series.
type nodeCounters map[string]float64

// scrapeAll reads every daemon's /metrics and sums the series by name.
func scrapeAll(ctx context.Context, urls []string) (nodeCounters, error) {
	out := nodeCounters{}
	for _, u := range urls {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		vals, err := obs.Scrape(sctx, u)
		cancel()
		if err != nil {
			return nil, err
		}
		out.add(vals)
	}
	return out, nil
}

func (n nodeCounters) add(vals map[string]float64) {
	for k, v := range vals {
		n[k] += v
	}
}

// delta is after minus before, series by series.
func delta(before, after nodeCounters) nodeCounters {
	out := nodeCounters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// wireClass groups an sdds opcode under the names the per-layer wire
// and handler metrics use; every coordinator step of a split or merge
// counts as "migrate".
func wireClass(name string) string {
	switch name {
	case "put", "put_batch", "get", "delete", "search":
		return name
	}
	for _, p := range []string{"migrate_", "split_", "merge_", "bucket_create"} {
		if strings.HasPrefix(name, p) {
			return "migrate"
		}
	}
	return "other"
}

// wireClasses are the wire op classes reported per layer.
var wireClasses = []string{"put", "put_batch", "get", "delete", "search", "migrate"}

// handlerTotals sums the node handler histograms by wire class:
// nanoseconds spent and requests handled.
func (n nodeCounters) handlerTotals() (ns, count map[string]float64) {
	ns, count = map[string]float64{}, map[string]float64{}
	for op := 0; op < 256; op++ {
		name := sdds.OpName(uint8(op))
		if name == "" {
			continue
		}
		base := "node_op_" + name + "_ns"
		cls := wireClass(name)
		ns[cls] += n[base+"_sum"]
		count[cls] += n[base+"_count"]
	}
	return ns, count
}

// handlerMeanUS is the daemons' mean handler time, in µs, for one wire
// class (0 when no request of the class was handled).
func (n nodeCounters) handlerMeanUS(cls string) float64 {
	ns, count := n.handlerTotals()
	if count[cls] == 0 {
		return 0
	}
	return ns[cls] / count[cls] / 1e3
}

// handlerNS is the daemons' total handler time over every opcode.
func (n nodeCounters) handlerNS() float64 {
	ns, _ := n.handlerTotals()
	total := 0.0
	for _, v := range ns {
		total += v
	}
	return total
}

// meanUS is a histogram's mean, in µs, from its _sum and _count (in ns).
func (n nodeCounters) meanUS(hist string) float64 {
	if c := n[hist+"_count"]; c > 0 {
		return n[hist+"_sum"] / c / 1e3
	}
	return 0
}
