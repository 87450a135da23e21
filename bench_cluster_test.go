package atmatrix

// Cluster benchmarks: one distributed multiply through the coordinator,
// sharded against shipped. The sharded variant resolves operands by
// (name, generation, shard) reference from the workers' stores — only
// the task headers and the streamed partial products cross the wire —
// while the shipped variant names operands without shard maps, so each
// multiply cuts them into per-multiply shards that ride inline in every
// exec frame, the way unsharded matrices execute. `make bench-cluster`
// serializes both to BENCH_cluster.json; each record carries the
// coordinator's streaming-merge high-water mark as a mergePeakB/op
// metric, the number the reassembly window bounds.

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"atmatrix/internal/catalog"
	"atmatrix/internal/cluster"
	"atmatrix/internal/core"
	"atmatrix/internal/mat"
)

// benchWorker serves an in-process cluster worker on loopback.
func benchWorker(b *testing.B, cfg core.Config) string {
	b.Helper()
	mux := http.NewServeMux()
	cluster.NewWorker(cfg).Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	b.Cleanup(func() { _ = srv.Close(); <-done })
	return ln.Addr().String()
}

// benchCluster stands up three workers and a coordinator with R=2
// replication and no background loops (probes and repair would only add
// noise to the timings), plus a memory-only catalog holding the two
// operands for the sharded variant.
func benchCluster(b *testing.B) (*cluster.Coordinator, *core.ATMatrix, *core.ATMatrix, core.Config) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2

	addrs := []string{benchWorker(b, cfg), benchWorker(b, cfg), benchWorker(b, cfg)}
	coord := cluster.NewCoordinator(cfg, cluster.Options{
		HeartbeatPeriod: -1,
		Replication:     2,
		RepairPeriod:    -1,
		RPCTimeout:      60 * time.Second,
	}, addrs)
	b.Cleanup(coord.Close)

	cat, err := catalog.Open(cfg, 0, "")
	if err != nil {
		b.Fatalf("catalog open: %v", err)
	}
	b.Cleanup(cat.Close)
	coord.AttachCatalog(cat)

	var ms [2]*core.ATMatrix
	for i, name := range []string{"A", "B"} {
		rng := rand.New(rand.NewSource(int64(90 + i)))
		m, _, err := core.Partition(mat.RandomCOO(rng, 1024, 1024, 16384), cfg)
		if err != nil {
			b.Fatalf("partition %s: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			b.Fatalf("serializing %s: %v", name, err)
		}
		if _, err := cat.Load(name, catalog.FormatATM, &buf, false); err != nil {
			b.Fatalf("loading %s: %v", name, err)
		}
		ms[i] = m
	}
	return coord, ms[0], ms[1], cfg
}

// runClusterMultiply drives b.N distributed multiplies and reports the
// coordinator's merge high-water mark alongside the latency.
func runClusterMultiply(b *testing.B, coord *cluster.Coordinator, aName, bName string, am, bm *core.ATMatrix) {
	b.Helper()
	opts := core.MultOptions{Estimate: true, DynOpt: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coord.Multiply(aName, bName, am, bm, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := coord.Stats()
	if st.RemoteMultiplies == 0 {
		b.Fatal("no multiply executed remotely")
	}
	b.ReportMetric(float64(st.MergePeakBytes), "mergePeakB/op")
}

// BenchmarkCluster_Multiply: the same 1024² multiply through the same
// three-worker cluster, by shard reference and by inline per-multiply
// shards.
// The spread between the two is the per-multiply cost of re-shipping
// operands the workers could have kept.
func BenchmarkCluster_Multiply(b *testing.B) {
	coord, am, bm, _ := benchCluster(b)
	ctx := context.Background()
	for _, name := range []string{"A", "B"} {
		if err := coord.ShardByName(ctx, name); err != nil {
			b.Fatalf("sharding %s: %v", name, err)
		}
	}
	b.Run("sharded", func(b *testing.B) {
		runClusterMultiply(b, coord, "A", "B", am, bm)
	})
	// Unsharded names get per-multiply shard maps: their shards ride
	// inline in every exec frame.
	b.Run("shipped", func(b *testing.B) {
		runClusterMultiply(b, coord, "A-inline", "B-inline", am, bm)
	})
}
