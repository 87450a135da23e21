// Command perfbench is the repository benchmark: it drives the real
// atserve binary over HTTP with a closed loop of two clients per workload
// and reports the end-to-end metrics, or, with -trace 1, sends the same job
// sequences in process through the layers' public functions and reports a
// per-layer breakdown. Run it through run.sh, which builds both programs:
//
//	bash perfbench/run.sh --workload structured-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Workloads and metrics are
// described in README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"atmatrix/internal/core"
)

// metric describes one reported metric, as BENCHMARK.json lists it.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run (-trace 0).
var endToEnd = []metric{
	{"throughput_jobs_s", "1/s", "higher"},
	{"compute.p50_ms", "ms", "lower"},
	{"compute.tail_ms", "ms", "lower"},
	{"load.p50_ms", "ms", "lower"},
	{"load.tail_ms", "ms", "lower"},
	{"success_rate", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of the traced run (-trace 1).
var perLayer = []metric{
	{"atserve.http_ms.p50", "ms", "lower"},
	{"service.queue_ms.p50", "ms", "lower"},
	{"service.exec_ms.p50", "ms", "lower"},
	{"service.retries", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"mmio.decode_ms.p50", "ms", "lower"},
	{"catalog.put_ms.p50", "ms", "lower"},
	{"catalog.acquire_us.p50", "us", "lower"},
	{"core.partition_ms.p50", "ms", "lower"},
	{"core.partition.sort_ms", "ms", "lower"},
	{"core.partition.count_ms", "ms", "lower"},
	{"core.partition.build_ms", "ms", "lower"},
	{"core.tiles_sparse", "count", "lower"},
	{"core.tiles_dense", "count", "lower"},
	{"core.estimate_ms.p50", "ms", "lower"},
	{"core.optimize_ms.p50", "ms", "lower"},
	{"core.convert_ms.p50", "ms", "lower"},
	{"core.conversions", "count", "lower"},
	{"core.kernels_ms.p50", "ms", "lower"},
	{"core.finalize_ms.p50", "ms", "lower"},
	{"core.verify_ms.p50", "ms", "lower"},
	{"core.contributions", "count", "lower"},
	{"core.target_tiles", "count", "lower"},
	{"core.outer_calls", "count", "lower"},
	{"core.gustavson_calls", "count", "lower"},
	{"sched.tasks_stolen", "count", "lower"},
	{"core.flops", "flop", "lower"},
	{"core.kernel_gflops", "GFLOP/s", "higher"},
	{"core.spspsp_ms.p50", "ms", "lower"},
	{"core.alloc_mb_per_job", "MB", "lower"},
	{"expr.plan_ms.p50", "ms", "lower"},
	{"expr.execute_ms.p50", "ms", "lower"},
	{"expr.verify_ms.p50", "ms", "lower"},
	{"expr.fused_stages", "count", "higher"},
	{"expr.peak_intermediate_mb", "MB", "lower"},
	{"cluster.multiply_ms.p50", "ms", "lower"},
	{"cluster.overhead_ms.p50", "ms", "lower"},
	{"cluster.shard_ref_bytes_per_job", "B", "higher"},
	{"cluster.shipped_operand_bytes_per_job", "B", "lower"},
	{"cluster.merge_frames_per_job", "count", "lower"},
	{"cluster.merge_peak_mb", "MB", "lower"},
	{"cluster.rpc_retries", "count", "lower"},
	{"cluster.local_fallbacks", "count", "lower"},
	{"cluster.hedged_win_ratio", "ratio", "higher"},
	{"cluster.shard_ms", "ms", "lower"},
	{"trace.unaccounted_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

const (
	// The untraced run splits its timed phase into slices and sets the
	// servers up trialsPerSlice times before each: with the serving
	// deployment, 41 set-ups, whose median is setup_s.
	slices         = 10
	trialsPerSlice = 4
	// warmUp is the closed loop's untimed start, in which caches fill and
	// lazy set-up finishes.
	warmUp = time.Second
	mib    = 1 << 20
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string // directory for logs and spans
	atserve  string // atserve binary
	commit   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phases in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = report the per-layer metrics of a traced run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for server logs and span files")
	flag.StringVar(&o.atserve, "atserve", ".bench_build/bin/atserve", "atserve binary")
	flag.StringVar(&o.commit, "commit", "none", "commit the binaries were built from")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(2)
	}()
	res, err := measure(o)
	stopAll()
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure builds the workload's inputs, runs it and collects the metrics
// the trace mode asks for.
func measure(o options) (result, error) {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return result{}, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	t0 := time.Now()
	w, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	log.Printf("%s: inputs and reference products ready in %v", w.name, time.Since(t0).Round(time.Millisecond))
	dir := filepath.Join(o.out, "run", w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Println("env", environment(w, o))

	dur := time.Duration(o.seconds) * time.Second
	var hr *httpRun
	if o.trace == 0 {
		hr, err = runHTTP(w, o.atserve, dir, slices, trialsPerSlice, warmUp, dur)
	} else {
		// The untraced half gives the atserve.* and service.* figures;
		// the traced half the rest.
		hr, err = runHTTP(w, o.atserve, dir, 1, 0, warmUp, dur/2)
	}
	if err != nil {
		return result{}, err
	}
	fmt.Printf("error_rate %g (%d of %d requests failed, %d wrong products, %g failed the server's check)\n",
		ratio(float64(hr.failed), float64(hr.attempted)), hr.failed, hr.attempted, hr.wrong, hr.verifyFailed)
	fmt.Printf("steal_share %.4f (CPU time the hypervisor took during the timed phase)\n", hr.stealShare)

	var values map[string]float64
	defs := endToEnd
	if o.trace == 0 {
		values, err = endToEndValues(hr)
	} else {
		defs = perLayer
		values, err = tracedValues(w, hr, dur/2, filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed)))
	}
	if err != nil {
		return result{}, err
	}
	res := result{Correct: hr.correct(), Attempted: hr.attempted, Failed: hr.failed, Metrics: make(map[string]valueOut, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = valueOut{Value: v, Unit: d.unit}
	}
	return res, nil
}

// endToEndValues computes the end-to-end metrics of the untraced run and
// prints the tail percentiles they were read at and each request kind's
// median.
func endToEndValues(hr *httpRun) (map[string]float64, error) {
	var loads []samples
	var tput []float64
	for i := range hr.slices {
		loads = append(loads, hr.slices[i].load)
		tput = append(tput, hr.slices[i].throughput())
	}
	// Compute samples are read against their kind's median over the run:
	// a slice holds about five per kind on cluster-mult, too few for a
	// steady median of its own, and with slice medians the tail there
	// spread 0.26 over six seeds where it spread 0.12 with run medians.
	// Uploads are read against the medians of their slice.
	cp, lp := hr.compute.p50(), hr.load.p50()
	ct, err := tailOf(cp, []samples{hr.compute}, tailPercentile)
	if err != nil {
		return nil, fmt.Errorf("compute latency: %w", err)
	}
	lt, err := tailOf(lp, loads, tailPercentile)
	if err != nil {
		return nil, fmt.Errorf("load latency: %w", err)
	}
	for _, line := range []struct {
		name string
		v    any
	}{
		{"tails", map[string]tail{"compute": ct, "load": lt}},
		{"kinds", map[string]any{"compute": hr.compute.byKind(), "load": hr.load.byKind()}},
		{"slice_throughput", tput},
	} {
		b, err := json.Marshal(line.v)
		if err != nil {
			return nil, err
		}
		fmt.Println(line.name, string(b))
	}
	return map[string]float64{
		"throughput_jobs_s": median(tput),
		"compute.p50_ms":    cp,
		"compute.tail_ms":   ct.Value,
		"load.p50_ms":       lp,
		"load.tail_ms":      lt.Value,
		"success_rate":      1 - ratio(float64(hr.failed), float64(hr.attempted)),
		"setup_s":           median(hr.setup),
		"peak_rss_mb":       float64(hr.peakRSS) / mib,
	}, nil
}

// tracedValues runs the census and the traced run, writes the spans to
// path and computes the per-layer metrics.
func tracedValues(w *workload, hr *httpRun, d time.Duration, path string) (map[string]float64, error) {
	counts, err := census(w)
	if err != nil {
		return nil, err
	}
	t, err := runTraced(w, d)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, t.spans); err != nil {
		return nil, err
	}
	log.Printf("%d spans written to %s", len(t.spans), path)
	sp := t.spans
	p50 := func(name string) float64 { return median(durations(sp, name)) }
	part := func(f func(*core.PartitionStats) time.Duration) float64 {
		var xs []float64
		for _, ps := range t.data.parts {
			xs = append(xs, ms(f(ps)))
		}
		return median(xs)
	}
	mult := func(f func(*core.MultStats) time.Duration) float64 {
		var xs []float64
		for _, st := range t.data.coreMult {
			xs = append(xs, ms(f(st)))
		}
		return median(xs)
	}
	v := map[string]float64{
		"atserve.http_ms.p50":      median(hr.http),
		"service.queue_ms.p50":     median(hr.queue),
		"service.exec_ms.p50":      median(hr.wall),
		"service.retries":          hr.retries,
		"service.rejected":         hr.rejected,
		"mmio.decode_ms.p50":       p50("mmio.decode"),
		"catalog.put_ms.p50":       p50("catalog.put"),
		"catalog.acquire_us.p50":   p50("catalog.acquire") * 1000,
		"core.partition_ms.p50":    p50("core.partition"),
		"core.partition.sort_ms":   part(func(s *core.PartitionStats) time.Duration { return s.SortTime }),
		"core.partition.count_ms":  part(func(s *core.PartitionStats) time.Duration { return s.CountTime }),
		"core.partition.build_ms":  part(func(s *core.PartitionStats) time.Duration { return s.BuildTime }),
		"core.estimate_ms.p50":     mult(func(s *core.MultStats) time.Duration { return s.EstimateTime }),
		"core.optimize_ms.p50":     mult(func(s *core.MultStats) time.Duration { return s.OptimizeTime }),
		"core.convert_ms.p50":      mult(func(s *core.MultStats) time.Duration { return s.ConvertTime }),
		"core.kernels_ms.p50":      mult(func(s *core.MultStats) time.Duration { return s.MultiplyTime }),
		"core.finalize_ms.p50":     mult(func(s *core.MultStats) time.Duration { return s.FinalizeTime }),
		"core.verify_ms.p50":       mult(func(s *core.MultStats) time.Duration { return s.VerifyTime }),
		"core.kernel_gflops":       median(t.data.gflops),
		"core.spspsp_ms.p50":       p50("baseline.spspsp"),
		"expr.plan_ms.p50":         p50("expr.plan"),
		"expr.execute_ms.p50":      p50("expr.execute"),
		"expr.verify_ms.p50":       p50("expr.verify"),
		"cluster.multiply_ms.p50":  p50("cluster.multiply"),
		"cluster.overhead_ms.p50":  median(t.data.overhead),
		"cluster.merge_peak_mb":    float64(t.cstats.MergePeakBytes) / mib,
		"cluster.rpc_retries":      float64(t.cstats.RPCRetries),
		"cluster.local_fallbacks":  float64(t.cstats.LocalFallbacks),
		"cluster.hedged_win_ratio": ratio(float64(t.cstats.HedgedWins), float64(t.cstats.HedgesSent)),
		"cluster.shard_ms":         t.shardMS,
		"trace.unaccounted_share":  unaccountedShare(sp, "job"),
		"trace.overhead_share":     ratio(median(t.data.exec), median(hr.wall)) - 1,
	}
	for k, c := range counts {
		v[k] = c
	}
	return v, nil
}

// env is the machine and build a result was measured on.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLCBytes   int64  `json:"llc_bytes"`
	BAtomic    int    `json:"b_atomic"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func (e env) String() string {
	b, err := json.Marshal(e)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

func environment(w *workload, o options) env {
	return env{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCBytes: w.cfg.LLCBytes, BAtomic: w.cfg.BAtomic,
		GoVersion: runtime.Version(), Commit: o.commit,
	}
}
