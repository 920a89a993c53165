package main

import (
	"bufio"
	"crypto/aes"
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/sdds"
)

// latencyStats summarises one population of op latencies, in ms.
type latencyStats struct {
	n             int
	p50, p90, p99 float64
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func latencies(lat []time.Duration) latencyStats {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return latencyStats{n: len(lat), p50: ms(quantile(lat, 0.50)), p90: ms(quantile(lat, 0.90)), p99: ms(quantile(lat, 0.99))}
}

// loopSummary is the timed phase's outcome.
type loopSummary struct {
	attempted, completed, failed int
	// Whole phase.
	all    latencyStats
	byKind [numOpKinds]latencyStats
	// Medians over the measurement windows.
	opsPerS, p50, p90, cpuMSPerOp float64
	// Mean latency of the untraced and traced windows (traced runs).
	meanPlain, meanTraced time.Duration
}

// summarizeLoop computes latency percentiles over the ops that
// succeeded; failed ops count against error_rate instead. Each window
// holds the ops that completed in it.
func summarizeLoop(lr loopResult, windows int) loopSummary {
	var (
		s      loopSummary
		all    []time.Duration
		byKind [numOpKinds][]time.Duration
		perWin = make([][]time.Duration, windows)
		sum    [2]time.Duration
		n      [2]int
	)
	for _, x := range lr.samples {
		s.attempted++
		if x.failed {
			s.failed++
			continue
		}
		s.completed++
		all = append(all, x.lat)
		byKind[x.kind] = append(byKind[x.kind], x.lat)
		if w := int(x.end / window); w < windows {
			perWin[w] = append(perWin[w], x.lat)
		}
		w := 0
		if x.traced {
			w = 1
		}
		sum[w] += x.lat
		n[w]++
	}
	s.all = latencies(all)
	for k := range byKind {
		s.byKind[k] = latencies(byKind[k])
	}
	var tput, p50, p90, cpu []float64
	for w, lat := range perWin {
		st := latencies(lat)
		tput = append(tput, float64(st.n)/window.Seconds())
		p50 = append(p50, st.p50)
		p90 = append(p90, st.p90)
		if w+1 < len(lr.cpu) {
			cpu = append(cpu, perOp(float64(lr.cpu[w+1]-lr.cpu[w])/1e6, st.n))
		}
	}
	s.opsPerS, s.p50, s.p90, s.cpuMSPerOp = median(tput), median(p50), median(p90), median(cpu)
	if n[0] > 0 && n[1] > 0 {
		s.meanPlain, s.meanTraced = sum[0]/time.Duration(n[0]), sum[1]/time.Duration(n[1])
	}
	return s
}

// overheadPct is how much longer traced ops took than untraced ones, on
// average, in percent.
func (s loopSummary) overheadPct() float64 {
	if s.meanPlain == 0 {
		return 0
	}
	return 100 * (float64(s.meanTraced)/float64(s.meanPlain) - 1)
}

func (s loopSummary) opsByKind() [numOpKinds]int {
	var out [numOpKinds]int
	for k, st := range s.byKind {
		out[k] = st.n
	}
	return out
}

// aesBlockNS is a host-speed probe: the median of five timings of
// AES-128 block encryptions, in ns per block. It is printed for
// diagnosis only and scales no metric.
func aesBlockNS() float64 {
	const blocks = 1 << 18
	c, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	var buf [16]byte
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < blocks; i++ {
			c.Encrypt(buf[:], buf[:])
		}
		runs = append(runs, float64(time.Since(t0))/blocks)
	}
	return median(runs)
}

// writeSpans dumps the recorded traces, one JSON line per operation:
// its kind and its spans as [name, parent, start_ns, end_ns].
func writeSpans(path string, traces []*opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Op    string  `json:"op"`
		Spans [][]any `json:"spans"`
	}
	for _, t := range traces {
		l := line{Op: t.kind.String()}
		for _, sp := range t.spans {
			name := sp.name
			if sp.wire {
				name = "transport." + sdds.OpName(sp.wireOp)
			}
			l.Spans = append(l.Spans, []any{name, sp.parent, sp.start, sp.end})
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
