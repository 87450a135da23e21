package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one running atserve process.
type node struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited
}

// live holds the started nodes not yet stopped, so an interrupted run can
// stop them before it exits.
var live = struct {
	sync.Mutex
	nodes map[*node]bool
}{nodes: make(map[*node]bool)}

// stopAll stops every live node.
func stopAll() {
	live.Lock()
	nodes := make([]*node, 0, len(live.nodes))
	for n := range live.nodes {
		nodes = append(nodes, n)
	}
	live.Unlock()
	for _, n := range nodes {
		n.stop()
	}
}

// startNode starts atserve on a loopback port and returns once the process
// has written its bound address.
func startNode(bin, dir, tag string, args []string) (*node, error) {
	addrFile := filepath.Join(dir, tag+".addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, tag+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", tag, err)
	}
	n := &node{cmd: cmd, done: make(chan struct{})}
	live.Lock()
	live.nodes[n] = true
	live.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		close(n.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			n.addr = strings.TrimSpace(string(b))
			return n, nil
		}
		select {
		case <-n.done:
			return nil, fmt.Errorf("%s exited during start-up; see %s.log", tag, filepath.Join(dir, tag))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			n.stop()
			return nil, fmt.Errorf("%s did not report its address within 30s", tag)
		}
	}
}

// stop terminates the process and waits until it has exited.
func (n *node) stop() {
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-n.done:
	case <-time.After(15 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
	}
	live.Lock()
	delete(live.nodes, n)
	live.Unlock()
}

// vmHWM returns the process's peak resident set size in bytes.
func (n *node) vmHWM() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", n.cmd.Process.Pid)
}

// deployment is the set of atserve processes serving one workload; base is
// the URL clients send requests to.
type deployment struct {
	nodes []*node
	base  string
}

// deploy starts the workload's servers: one node, or a coordinator with two
// workers on loopback. All run with the fixed benchmark flags.
func deploy(w *workload, bin, dir string) (*deployment, error) {
	flags := []string{
		"-verify", strconv.Itoa(verifyRounds),
		"-b-atomic", strconv.Itoa(w.cfg.BAtomic),
		"-sockets", "1", "-cores", "2",
	}
	d := &deployment{}
	if !w.cluster {
		n, err := startNode(bin, dir, "node", flags)
		if err != nil {
			return nil, err
		}
		d.nodes = []*node{n}
		d.base = "http://" + n.addr
		return d, nil
	}
	var peers []string
	for i := 0; i < 2; i++ {
		n, err := startNode(bin, dir, fmt.Sprintf("worker%d", i), append([]string{"-role", "worker"}, flags...))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		peers = append(peers, n.addr)
	}
	n, err := startNode(bin, dir, "coordinator", append([]string{"-role", "coordinator", "-peers", strings.Join(peers, ",")}, flags...))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.nodes = append(d.nodes, n)
	d.base = "http://" + n.addr
	return d, nil
}

// stop terminates every process of the deployment and waits for them.
func (d *deployment) stop() {
	for _, n := range d.nodes {
		n.stop()
	}
}

// peakRSS sums the peak resident set sizes of the deployment's processes.
func (d *deployment) peakRSS() (int64, error) {
	var total int64
	for _, n := range d.nodes {
		b, err := n.vmHWM()
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// scrapeMetrics reads the server's /metrics counters.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// cpuTimes reads the aggregate cpu line of /proc/stat.
func cpuTimes() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine reads from the aggregate cpu line of /proc/stat the time
// the hypervisor gave to other guests while this machine's CPUs wanted to
// run (steal) and the total, both in clock ticks. Guest time is part of
// user time there, so the total sums the first eight fields only.
func parseCPULine(line string) (steal, total int64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
