package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/cluster"
	"atmatrix/internal/core"
	"atmatrix/internal/expr"
	"atmatrix/internal/mat"
	"atmatrix/internal/mmio"
)

// stack is the in-process mirror of one deployment: a memory-only catalog
// and, for the cluster, a coordinator over two loopback workers.
type stack struct {
	cfg   core.Config
	cat   *catalog.Catalog
	coord *cluster.Coordinator
	srvs  []*http.Server
	wg    sync.WaitGroup
}

func newStack(w *workload) (*stack, error) {
	cat, err := catalog.Open(w.cfg, 0, "")
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: w.cfg, cat: cat}
	if !w.cluster {
		return s, nil
	}
	var peers []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		mux := http.NewServeMux()
		cluster.NewWorker(w.cfg).Register(mux)
		srv := &http.Server{Handler: mux}
		s.srvs = append(s.srvs, srv)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed once close runs
		}()
		peers = append(peers, ln.Addr().String())
	}
	s.coord = cluster.NewCoordinator(w.cfg, cluster.Options{}, peers)
	s.coord.AttachCatalog(cat)
	return s, nil
}

// clusterStats returns the coordinator's counters, zero without one.
func (s *stack) clusterStats() cluster.Stats {
	if s.coord == nil {
		return cluster.Stats{}
	}
	return s.coord.Stats()
}

// close stops the coordinator and the workers and waits for them.
func (s *stack) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, srv := range s.srvs {
		_ = srv.Close() // closing a serving listener cannot fail in a way that matters here
	}
	s.wg.Wait()
	s.cat.Close()
}

// layerData collects what the traced run's calls return, besides spans.
type layerData struct {
	mu sync.Mutex
	// jobMult holds the stats each job's own multiplies return (on the
	// cluster, the coordinator's); coreMult those whose phase times the
	// core.* timings come from (on the cluster, the local baseline's, as
	// worker-side phase times do not reach the coordinator).
	jobMult, coreMult []*core.MultStats
	gflops            []float64
	overhead          []float64 // cluster: coordinator minus local, ms
	exec              []float64 // the part a response's wall_ns covers, ms
	parts             []*core.PartitionStats
	tilesSparse       int
	tilesDense        int
	fused             int
	peakInter         int64
	shipped           int64 // operand bytes of wire-shipped cluster products
	allocBytes        uint64
	wrong             int
}

func (d *layerData) locked(f func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f()
}

// tracedRun drives the layers in process, one span around each call.
type tracedRun struct {
	w    *workload
	s    *stack
	tr   *tracer
	data *layerData
}

// acquire leases a catalog entry inside a span.
func (r *tracedRun) acquire(req string, parent int, name string) (*catalog.Handle, error) {
	var h *catalog.Handle
	err := r.tr.do(req, parent, "catalog.acquire", func(int) error {
		var err error
		h, err = r.s.cat.Acquire(name)
		return err
	})
	return h, err
}

// load mirrors an upload: decode, partition, catalog put and, on the
// cluster, sharding.
func (r *tracedRun) load(req string, parent int, name string, bin []byte) error {
	var coo *mat.COO
	if err := r.tr.do(req, parent, "mmio.decode", func(int) error {
		var err error
		coo, err = mmio.ReadBinary(bytes.NewReader(bin))
		return err
	}); err != nil {
		return err
	}
	var a *core.ATMatrix
	var ps *core.PartitionStats
	if err := r.tr.do(req, parent, "core.partition", func(int) error {
		var err error
		a, ps, err = core.Partition(coo, r.s.cfg)
		return err
	}); err != nil {
		return err
	}
	sp, dn := a.TileCount()
	r.data.locked(func() {
		r.data.parts = append(r.data.parts, ps)
		r.data.tilesSparse += sp
		r.data.tilesDense += dn
	})
	if err := r.tr.do(req, parent, "catalog.put", func(int) error { return r.s.cat.Put(name, a, false) }); err != nil {
		return err
	}
	if r.s.coord == nil {
		return nil
	}
	return r.tr.do(req, parent, "cluster.shard", func(int) error {
		r.s.coord.DropShards(context.Background(), name)
		return r.s.coord.ShardByName(context.Background(), name)
	})
}

// remove mirrors a delete.
func (r *tracedRun) remove(req string, parent int, name string) error {
	return r.tr.do(req, parent, "catalog.delete", func(int) error {
		if r.s.coord != nil {
			r.s.coord.DropShards(context.Background(), name)
		}
		return r.s.cat.Delete(name)
	})
}

// product is one executed pair multiply.
type product struct {
	a, b  *core.ATMatrix
	out   *core.ATMatrix
	stats *core.MultStats
	exec  time.Duration
}

// multiply mirrors the service's pair execution: acquire both operands,
// multiply (on the cluster through the coordinator), release.
func (r *tracedRun) multiply(req string, parent int, aName, bName string) (*product, error) {
	ha, err := r.acquire(req, parent, aName)
	if err != nil {
		return nil, err
	}
	defer ha.Release()
	hb, err := r.acquire(req, parent, bName)
	if err != nil {
		return nil, err
	}
	defer hb.Release()
	p := &product{a: ha.Matrix(), b: hb.Matrix()}
	if r.s.coord != nil {
		_, aSharded := r.s.cat.ShardMapOf(aName)
		_, bSharded := r.s.cat.ShardMapOf(bName)
		if !aSharded || !bSharded {
			n := p.a.Bytes() + p.b.Bytes()
			r.data.locked(func() { r.data.shipped += n })
		}
	}
	name := "core.multiply"
	if r.s.coord != nil {
		name = "cluster.multiply"
	}
	t0 := time.Now()
	err = r.tr.do(req, parent, name, func(int) error {
		var err error
		if r.s.coord != nil {
			p.out, p.stats, err = r.s.coord.Multiply(aName, bName, p.a, p.b, multOptions())
		} else {
			p.out, p.stats, err = core.MultiplyOpt(p.a, p.b, r.s.cfg, multOptions())
		}
		return err
	})
	p.exec = time.Since(t0)
	if err != nil {
		return nil, err
	}
	r.data.locked(func() {
		r.data.jobMult = append(r.data.jobMult, p.stats)
		r.data.exec = append(r.data.exec, ms(p.exec))
	})
	return p, nil
}

// check counts a product whose shape differs from the reference.
func (r *tracedRun) check(got *core.ATMatrix, want shape) {
	if shapeOf(got) != want {
		r.data.locked(func() { r.data.wrong++ })
	}
}

// eval mirrors the service's expression execution: parse, acquire the
// operands, plan, execute and verify.
func (r *tracedRun) eval(req string, parent int, t *template) error {
	var node expr.Node
	if err := r.tr.do(req, parent, "expr.parse", func(int) error {
		var err error
		node, err = expr.Parse(t.expr)
		return err
	}); err != nil {
		return err
	}
	bind := make(map[string]*core.ATMatrix)
	for _, v := range expr.Vars(node) {
		h, err := r.acquire(req, parent, v)
		if err != nil {
			return err
		}
		defer h.Release()
		bind[v] = h.Matrix()
	}
	var plan *expr.Plan
	t0 := time.Now()
	if err := r.tr.do(req, parent, "expr.plan", func(int) error {
		var err error
		plan, err = expr.PlanExpr(node, bind, r.s.cfg, expr.Options{Mult: core.DefaultMultOptions()})
		return err
	}); err != nil {
		return err
	}
	var out *core.ATMatrix
	var st *expr.ExecStats
	if err := r.tr.do(req, parent, "expr.execute", func(int) error {
		var err error
		out, st, err = plan.Execute()
		return err
	}); err != nil {
		return err
	}
	exec := time.Since(t0)
	if err := r.tr.do(req, parent, "expr.verify", func(int) error {
		return expr.Verify(plan.Expr, bind, out, verifyRounds, 1)
	}); err != nil {
		return err
	}
	r.check(out, t.want[0])
	r.data.locked(func() {
		r.data.exec = append(r.data.exec, ms(exec))
		r.data.fused += st.FusedStages
		r.data.peakInter = max(r.data.peakInter, st.PeakIntermediateBytes)
	})
	return nil
}

// job runs one job of the mix under a top span named "job" and returns its
// pair products. name is the catalog name of the job's own matrix, if it
// makes one.
func (r *tracedRun) job(req string, t *template, name string) ([]*product, error) {
	var prods []*product
	err := r.tr.do(req, 0, "job", func(root int) error {
		mult := func(a, b string, want shape) error {
			p, err := r.multiply(req, root, a, b)
			if err != nil {
				return err
			}
			r.check(p.out, want)
			prods = append(prods, p)
			return nil
		}
		switch t.kind {
		case kindEval:
			return r.eval(req, root, t)
		case kindIngest:
			if err := r.load(req, root, name, t.op.bin); err != nil {
				return err
			}
			if err := mult(name, name, t.want[0]); err != nil {
				return err
			}
			return r.remove(req, root, name)
		case kindStored:
			if err := mult(t.op.name, t.op.name, t.want[0]); err != nil {
				return err
			}
			if err := r.store(req, root, name, prods[0].out); err != nil {
				return err
			}
			if err := mult(name, t.op.name, t.want[1]); err != nil {
				return err
			}
			return r.remove(req, root, name)
		}
		return mult(t.op.name, t.op.name, t.want[0])
	})
	return prods, err
}

// store mirrors a multiply's store option: the product is repartitioned
// and put into the catalog.
func (r *tracedRun) store(req string, parent int, name string, m *core.ATMatrix) error {
	var re *core.ATMatrix
	if err := r.tr.do(req, parent, "core.repartition", func(int) error {
		var err error
		re, _, err = m.Repartition(r.s.cfg)
		return err
	}); err != nil {
		return err
	}
	return r.tr.do(req, parent, "catalog.put", func(int) error { return r.s.cat.Put(name, re, false) })
}

// jobWithBaselines runs a job and then, in top spans of their own, the
// baselines its products are compared with.
func (r *tracedRun) jobWithBaselines(req string, t *template, name string) error {
	prods, err := r.job(req, t, name)
	if err != nil {
		return err
	}
	for i, p := range prods {
		if err := r.baseline(req, p, t.flops[i]); err != nil {
			return err
		}
	}
	return nil
}

// baseline times the plain CSR operator on a product's operands and, on
// the cluster, a local ATMULT, whose stats then stand for the core layer.
func (r *tracedRun) baseline(req string, p *product, flops int64) error {
	ac, bc := p.a.ToCSR(), p.b.ToCSR()
	if err := r.tr.do(req, 0, "baseline.spspsp", func(int) error {
		_, err := core.MulSpSpSp(ac, bc, r.s.cfg)
		return err
	}); err != nil {
		return err
	}
	st := p.stats
	if r.s.coord != nil {
		t0 := time.Now()
		if err := r.tr.do(req, 0, "baseline.local", func(int) error {
			var err error
			_, st, err = core.MultiplyOpt(p.a, p.b, r.s.cfg, multOptions())
			return err
		}); err != nil {
			return err
		}
		local := time.Since(t0)
		r.data.locked(func() { r.data.overhead = append(r.data.overhead, ms(p.exec-local)) })
	}
	r.data.locked(func() {
		r.data.coreMult = append(r.data.coreMult, st)
		if st.MultiplyTime > 0 {
			r.data.gflops = append(r.data.gflops, float64(flops)/st.MultiplyTime.Seconds()/1e9)
		}
	})
	return nil
}

// setUp loads every resident operand.
func (r *tracedRun) setUp() error {
	for _, op := range r.w.resident {
		req := "setup-" + op.name
		if err := r.tr.do(req, 0, "setup", func(root int) error { return r.load(req, root, op.name, op.bin) }); err != nil {
			return err
		}
	}
	return nil
}

// census runs the first w.census jobs of client 0's sequence one at a
// time on fresh state and returns the deterministic counts per job.
func census(w *workload) (map[string]float64, error) {
	s, err := newStack(w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := &tracedRun{w: w, s: s, tr: newTracer(), data: &layerData{}}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	before := s.clusterStats()
	var mem runtime.MemStats
	for j := 0; j < w.census; j++ {
		runtime.ReadMemStats(&mem)
		a0 := mem.TotalAlloc
		if _, err := r.job(fmt.Sprintf("census-%d", j), w.job(0, j), fmt.Sprintf("census-%d", j)); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem)
		r.data.allocBytes += mem.TotalAlloc - a0
	}
	d := r.data
	if d.wrong > 0 {
		return nil, fmt.Errorf("census: %d products differ from the reference", d.wrong)
	}
	n := float64(w.census)
	sum := func(f func(*core.MultStats) int64) float64 {
		var t int64
		for _, st := range d.jobMult {
			t += f(st)
		}
		return float64(t) / n
	}
	var fl int64
	for j := 0; j < w.census; j++ {
		for _, f := range w.job(0, j).flops {
			fl += f
		}
	}
	c := map[string]float64{
		"core.tiles_sparse":                     float64(d.tilesSparse),
		"core.tiles_dense":                      float64(d.tilesDense),
		"core.conversions":                      sum(func(s *core.MultStats) int64 { return s.Conversions }),
		"core.contributions":                    sum(func(s *core.MultStats) int64 { return s.Contributions }),
		"core.target_tiles":                     sum(func(s *core.MultStats) int64 { return s.TargetTiles }),
		"core.outer_calls":                      sum(func(s *core.MultStats) int64 { return s.OuterKernelCalls }),
		"core.gustavson_calls":                  sum(func(s *core.MultStats) int64 { return s.GustavsonKernelCalls }),
		"sched.tasks_stolen":                    sum(func(s *core.MultStats) int64 { return s.TasksStolen }),
		"core.flops":                            float64(fl) / n,
		"core.alloc_mb_per_job":                 float64(d.allocBytes) / n / (1 << 20),
		"expr.fused_stages":                     float64(d.fused) / n,
		"expr.peak_intermediate_mb":             float64(d.peakInter) / (1 << 20),
		"cluster.shipped_operand_bytes_per_job": float64(d.shipped) / n,
	}
	after := s.clusterStats()
	c["cluster.shard_ref_bytes_per_job"] = float64(after.ShardRefBytes-before.ShardRefBytes) / n
	c["cluster.merge_frames_per_job"] = float64(after.MergeFrames-before.MergeFrames) / n
	return c, nil
}

// exactCounts names the census counts that must repeat exactly for a
// seed; core.alloc_mb_per_job and sched.tasks_stolen depend on the
// runtime.
var exactCounts = []string{
	"core.tiles_sparse", "core.tiles_dense", "core.conversions", "core.contributions",
	"core.target_tiles", "core.flops", "cluster.shard_ref_bytes_per_job",
	"cluster.merge_frames_per_job", "cluster.shipped_operand_bytes_per_job",
}

// tracedResult is what the timed traced phase measured.
type tracedResult struct {
	spans   []span
	data    *layerData
	cstats  cluster.Stats // deltas over the timed phase, peak at its end
	shardMS float64
}

// runTraced sets the layers up in process and sends the closed loop's job
// sequences through them for d.
func runTraced(w *workload, d time.Duration) (*tracedResult, error) {
	s, err := newStack(w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := &tracedRun{w: w, s: s, tr: newTracer(), data: &layerData{}}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	before := s.clusterStats()
	deadline := time.Now().Add(d)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				req := fmt.Sprintf("c%d-j%d", c, j)
				name := fmt.Sprintf("t-%d-%d", c, j)
				if err := r.jobWithBaselines(req, w.job(c, j), name); err != nil {
					errs[c] = fmt.Errorf("%s: %w", req, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &tracedResult{spans: r.tr.snapshot(), data: r.data}
	for _, sp := range res.spans {
		if sp.Name == "cluster.shard" && strings.HasPrefix(sp.Req, "setup-") {
			res.shardMS += ms(sp.dur())
		}
	}
	after := s.clusterStats()
	res.cstats = cluster.Stats{
		RPCRetries:     after.RPCRetries - before.RPCRetries,
		LocalFallbacks: after.LocalFallbacks - before.LocalFallbacks,
		HedgesSent:     after.HedgesSent - before.HedgesSent,
		HedgedWins:     after.HedgedWins - before.HedgedWins,
		MergePeakBytes: after.MergePeakBytes,
	}
	if r.data.wrong > 0 {
		return nil, fmt.Errorf("traced run: %d products differ from the reference", r.data.wrong)
	}
	return res, nil
}
