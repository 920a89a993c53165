package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gcPercent pins GC pacing for the benchmark client and its daemons to
// the setting cmd/esdds-soak uses, so runs do not depend on the
// ambient GOGC.
const gcPercent = 300

// daemons is a set of spawned esdds-node processes on loopback.
type daemons struct {
	procs      []*exec.Cmd
	addrs      []string
	metricsURL []string // empty unless started with metrics
	dataDir    string   // empty for in-memory daemons
	logs       []*os.File
}

// freeAddrs reserves n loopback ports by binding and releasing them.
// Another process could take a port before the daemon binds it; on a
// benchmark host that race is rare and fails the run loudly.
func freeAddrs(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startDaemons spawns n esdds-node daemons and waits until each accepts
// connections. With dataDir set each daemon journals to
// dataDir/node-<i>; with metrics set each serves /metrics.
func startDaemons(ctx context.Context, bin string, n int, logDir, dataDir string, metrics bool) (*daemons, error) {
	ports, err := freeAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	d := &daemons{addrs: ports[:n], dataDir: dataDir}
	peers := strings.Join(d.addrs, ",")
	for i := 0; i < n; i++ {
		logF, err := os.Create(filepath.Join(logDir, "node-"+strconv.Itoa(i)+".log"))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.logs = append(d.logs, logF)
		args := []string{"-id", strconv.Itoa(i), "-listen", d.addrs[i], "-peers", peers}
		if metrics {
			args = append(args, "-metrics-addr", ports[n+i])
			d.metricsURL = append(d.metricsURL, "http://"+ports[n+i]+"/metrics")
		}
		if dataDir != "" {
			args = append(args, "-data-dir", filepath.Join(dataDir, "node-"+strconv.Itoa(i)))
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GOGC="+strconv.Itoa(gcPercent))
		cmd.Stdout, cmd.Stderr = logF, logF
		// A daemon must not outlive the benchmark, even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			d.stop()
			return nil, fmt.Errorf("spawning node %d: %w", i, err)
		}
		d.procs = append(d.procs, cmd)
	}
	wait := append([]string(nil), d.addrs...)
	if metrics {
		wait = append(wait, ports[n:]...)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, addr := range wait {
		if err := waitListening(ctx, addr, deadline); err != nil {
			d.stop()
			return nil, fmt.Errorf("daemon not ready (logs in %s): %w", logDir, err)
		}
	}
	return d, nil
}

func waitListening(ctx context.Context, addr string, deadline time.Time) error {
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			return conn.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("waiting for %s: %w", addr, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cpu sums the daemons' user+system CPU time.
func (d *daemons) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range d.procs {
		c, err := procCPU(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSS sums the daemons' peak resident set sizes, in bytes.
func (d *daemons) peakRSS() (int64, error) {
	var total int64
	for _, p := range d.procs {
		b, err := procPeakRSS(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// stop terminates every daemon (SIGTERM, SIGKILL after a grace period),
// waits for each to exit, and removes the data directory.
func (d *daemons) stop() {
	for _, p := range d.procs {
		p.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may already have exited
	}
	grace := time.AfterFunc(10*time.Second, func() {
		for _, p := range d.procs {
			p.Process.Kill() //nolint:errcheck // last resort
		}
	})
	for _, p := range d.procs {
		p.Wait() //nolint:errcheck // the exit status of a signalled daemon carries nothing
	}
	grace.Stop()
	for _, f := range d.logs {
		f.Close()
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir) //nolint:errcheck // the next set-up uses a fresh directory
	}
}
