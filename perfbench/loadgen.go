package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// clients is the closed loop's client count: atserve's callers are
// analytics jobs that wait for each product before sending the next.
const clients = 2

// httpStats accumulates what the untraced run observes over HTTP.
type httpStats struct {
	attempted, failed int
	wrong             int // responses whose shape or nnz differ from the reference
	jobs              int // jobs whose every request succeeded
	compute           samples
	load              samples
	queue, wall, http []float64 // from the compute responses' queue_ns and wall_ns
}

func newHTTPStats() httpStats { return httpStats{compute: samples{}, load: samples{}} }

func (s *httpStats) add(o *httpStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.wrong += o.wrong
	s.jobs += o.jobs
	s.compute.merge(o.compute)
	s.load.merge(o.load)
	s.queue = append(s.queue, o.queue...)
	s.wall = append(s.wall, o.wall...)
	s.http = append(s.http, o.http...)
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	id    int
	hc    *http.Client
	base  string
	timed bool // record latency samples
	st    httpStats
}

func newClient(id int, base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base, st: newHTTPStats()}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// failures caps how many failed requests a run logs.
var failures = struct {
	sync.Mutex
	n int
}{}

func logFailure(format string, args ...any) {
	failures.Lock()
	defer failures.Unlock()
	if failures.n++; failures.n <= 10 {
		log.Printf("request failed: "+format, args...)
	}
}

// send issues one request and accounts for it: a transport error or a
// status outside 2xx, a refused 429 included, counts as failed. It
// returns the response body and the client-side latency.
func (c *client) send(method, path, ctype string, body []byte) ([]byte, time.Duration, bool) {
	c.st.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		c.st.failed++
		logFailure("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.st.failed++
		logFailure("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil || resp.StatusCode/100 != 2 {
		c.st.failed++
		logFailure("%s %s: status %d: %s %v", method, path, resp.StatusCode, bytes.TrimSpace(b), err)
		return nil, lat, false
	}
	return b, lat, true
}

// jobResponse is the part of a /v1/multiply or /v1/eval reply the
// benchmark reads.
type jobResponse struct {
	shape
	Wall  int64 `json:"wall_ns"`
	Queue int64 `json:"queue_ns"`
}

// compute posts a multiply or eval request of the given kind and checks
// the product's shape against want.
func (c *client) compute(kind, path string, payload map[string]any, want shape) bool {
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // string and bool values always marshal
	}
	b, lat, ok := c.send(http.MethodPost, path, "application/json", body)
	if !ok {
		return false
	}
	var r jobResponse
	if err := json.Unmarshal(b, &r); err != nil || r.shape != want {
		c.st.failed++
		c.st.wrong++
		logFailure("POST %s %v: got %+v (%v), want %+v", path, payload, r.shape, err, want)
		return false
	}
	if c.timed {
		q, wl := time.Duration(r.Queue), time.Duration(r.Wall)
		c.st.compute.add(kind, ms(lat))
		c.st.queue = append(c.st.queue, ms(q))
		c.st.wall = append(c.st.wall, ms(wl))
		c.st.http = append(c.st.http, ms(lat-q-wl))
	}
	return true
}

// upload loads a matrix as binary COO; kind labels its latency sample.
func (c *client) upload(kind, name string, bin []byte) bool {
	_, lat, ok := c.send(http.MethodPost, "/v1/matrices?format=coo&name="+url.QueryEscape(name), "application/octet-stream", bin)
	if ok && c.timed {
		c.st.load.add(kind, ms(lat))
	}
	return ok
}

func (c *client) remove(name string) bool {
	_, _, ok := c.send(http.MethodDelete, "/v1/matrices/"+url.PathEscape(name), "", nil)
	return ok
}

// run sends the requests of the client's j-th job and reports whether all
// of them succeeded.
func (c *client) run(t *template, j int) bool {
	switch t.kind {
	case kindPair:
		return c.compute(t.label, "/v1/multiply", map[string]any{"a": t.op.name, "b": t.op.name}, t.want[0])
	case kindEval:
		return c.compute(t.label, "/v1/eval", map[string]any{"expr": t.expr}, t.want[0])
	case kindIngest:
		name := fmt.Sprintf("in-%d-%d", c.id, j)
		if !c.upload(t.label, name, t.op.bin) {
			return false
		}
		ok := c.compute(t.label, "/v1/multiply", map[string]any{"a": name, "b": name}, t.want[0])
		return c.remove(name) && ok
	case kindStored:
		name := fmt.Sprintf("tmp-%d-%d", c.id, j)
		if !c.compute(t.label, "/v1/multiply", map[string]any{"a": t.op.name, "b": t.op.name, "store": name}, t.want[0]) {
			return false
		}
		ok := c.compute(t.label+"-stored", "/v1/multiply", map[string]any{"a": name, "b": t.op.name}, t.want[1])
		return c.remove(name) && ok
	}
	panic(fmt.Sprintf("unknown job kind %d", t.kind))
}

// setUp deploys the workload's servers and loads every resident operand.
// It returns the set-up time in seconds: from the first process start
// until every resident operand is loaded and, on the cluster, sharded
// (atserve shards a cluster upload before answering it). The uploads are
// the load.* samples of the workloads whose jobs upload nothing.
func setUp(w *workload, bin, dir string, st *httpStats) (*deployment, float64, error) {
	t0 := time.Now()
	d, err := deploy(w, bin, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(0, d.base)
	c.timed = true
	ok := true
	for _, op := range w.resident {
		ok = ok && c.upload(op.name, op.name, op.bin)
	}
	secs := time.Since(t0).Seconds()
	c.close()
	st.add(&c.st)
	if !ok {
		err = fmt.Errorf("an upload failed")
	} else if w.cluster {
		err = checkSharded(d.base, len(w.resident))
	}
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	return d, secs, nil
}

// checkSharded fails unless the coordinator holds a shard map for every
// resident operand, so the cluster workload measures the shard-reference
// path it is meant to.
func checkSharded(base string, want int) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	m, err := scrapeMetrics(context.Background(), hc, base)
	if err != nil {
		return err
	}
	if got := int(m["atserve_cluster_sharded_matrices"]); got != want {
		return fmt.Errorf("%d of %d resident operands sharded", got, want)
	}
	return nil
}

// loop runs a closed loop: every client calls step with its next job index
// back to back until the phase ends, finishing the job in flight. next
// holds each client's next job index, so phases continue the sequences.
// step reports whether every request of the job succeeded.
func loop(cs []*client, next []int, d time.Duration, step func(c *client, j int) bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	ends := make([]time.Time, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if step(c, next[i]) && c.timed {
					c.st.jobs++
				}
				next[i]++
			}
			ends[i] = time.Now()
		}(i, c)
	}
	wg.Wait()
	var last time.Time
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	return last.Sub(start)
}

// slice is what one slice of the timed phase observed: its jobs and, on
// the workloads whose jobs upload nothing, the uploads of the set-ups
// before it.
type slice struct {
	httpStats
	elapsed time.Duration
}

// throughput is the slice's jobs per second.
func (s *slice) throughput() float64 { return float64(s.jobs) / s.elapsed.Seconds() }

// httpRun is the result of the untraced run.
type httpRun struct {
	httpStats
	slices   []slice
	setup    []float64
	peakRSS  int64
	retries  float64 // /metrics deltas over the timed phase
	rejected float64
	// verifyFailed is the serving deployment's count of products that
	// failed the server's Freivalds check: the server retries such a job
	// once, so a wrong value can be hidden from the client or reach it as
	// a 500.
	verifyFailed float64
	// stealShare is the share of CPU time the hypervisor took from this
	// machine during the timed phase: the main source of run-to-run spread
	// on a shared virtual machine.
	stealShare float64
}

// correct reports whether the run saw no wrong product: no failed request,
// as a failure can hide one, no shape or nnz mismatch, and no product that
// failed the server's own check.
func (r *httpRun) correct() bool { return r.failed == 0 && r.wrong == 0 && r.verifyFailed == 0 }

// verifyFailures reads from a /metrics scrape how many products failed the
// server's Freivalds check since it started. A scrape without the counter
// is an error, so that a renamed counter cannot switch the check off.
func verifyFailures(m map[string]float64) (float64, error) {
	const name = "atserve_verify_failed_total"
	v, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("/metrics has no %s", name)
	}
	return v, nil
}

// runHTTP sets up the serving deployment, warms it up, drives the job mix
// for d with the closed loop in the given number of slices, and stops the
// servers. Before each slice, while the clients wait, it sets up and stops
// trialsPerSlice more deployments of the workload, so that set-up and the
// set-up uploads are measured across the whole run, as the jobs are: the
// host's speed drifts over seconds, and a set-up series run in one piece
// would see only one moment of it.
func runHTTP(w *workload, bin, dir string, slices, trialsPerSlice int, warm, d time.Duration) (*httpRun, error) {
	r := &httpRun{httpStats: newHTTPStats()}
	dep, secs, err := setUp(w, bin, dir, &r.httpStats)
	if err != nil {
		return nil, err
	}
	defer dep.stop()
	r.setup = []float64{secs}
	trialDir := filepath.Join(dir, "setup")
	if err := os.MkdirAll(trialDir, 0o755); err != nil {
		return nil, err
	}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(i, dep.base)
		defer cs[i].close()
	}
	next := make([]int, clients)
	run := func(c *client, j int) bool { return c.run(w.job(c.id, j), j) }
	loop(cs, next, warm, run)
	mc := &http.Client{Timeout: 10 * time.Second}
	defer mc.CloseIdleConnections()
	before, err := scrapeMetrics(context.Background(), mc, dep.base)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		r.httpStats.add(&c.st) // warm-up requests count as attempted, not as samples
		c.st = newHTTPStats()
		c.timed = true
	}
	steal0, total0, err := cpuTimes()
	if err != nil {
		return nil, err
	}
	for i := 0; i < slices; i++ {
		sl := slice{httpStats: newHTTPStats()}
		for k := 0; k < trialsPerSlice; k++ {
			td, secs, err := setUp(w, bin, trialDir, &sl.httpStats)
			if err != nil {
				return nil, err
			}
			td.stop()
			r.setup = append(r.setup, secs)
		}
		sl.elapsed = loop(cs, next, d/time.Duration(slices), run)
		for _, c := range cs {
			sl.add(&c.st)
			c.st = newHTTPStats()
		}
		r.httpStats.add(&sl.httpStats)
		r.slices = append(r.slices, sl)
	}
	steal1, total1, err := cpuTimes()
	if err != nil {
		return nil, err
	}
	r.stealShare = ratio(float64(steal1-steal0), float64(total1-total0))
	after, err := scrapeMetrics(context.Background(), mc, dep.base)
	if err != nil {
		return nil, err
	}
	if r.verifyFailed, err = verifyFailures(after); err != nil {
		return nil, err
	}
	r.retries = after["atserve_retries_total"] - before["atserve_retries_total"]
	r.rejected = after["atserve_jobs_rejected_total"] - before["atserve_jobs_rejected_total"]
	if r.peakRSS, err = dep.peakRSS(); err != nil {
		return nil, err
	}
	return r, nil
}
