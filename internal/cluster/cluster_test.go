package cluster

import (
	"bytes"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"atmatrix/internal/core"
	"atmatrix/internal/mat"
	"atmatrix/internal/sched"
)

// testCfg mirrors the core test configuration: 64×64 dense tile cap,
// atomic blocks of 8, two 2-core sockets.
func testCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.LLCBytes = 3 * 8 * 64 * 64
	cfg.BAtomic = 8
	cfg.Topology.Sockets = 2
	cfg.Topology.CoresPerSocket = 2
	return cfg
}

// testOptions disables the background heartbeat loop (health moves only on
// RPC outcomes, keeping tests deterministic) and tightens the retry knobs.
func testOptions(hc *http.Client) Options {
	return Options{
		HeartbeatPeriod: -1,
		RPCTimeout:      30 * time.Second,
		MaxRetries:      1,
		RetryBase:       2 * time.Millisecond,
		RetryMax:        10 * time.Millisecond,
		Client:          hc,
	}
}

// testClient returns an HTTP client with a private transport so idle
// connections can be torn down before the leak check asserts.
func testClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

func partition(t *testing.T, cfg core.Config, src *mat.COO) *core.ATMatrix {
	t.Helper()
	m, _, err := core.Partition(src, cfg)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return m
}

// startWorker serves a cluster worker on loopback and returns its address.
// wrap, when non-nil, interposes on the worker's handler (used by the
// chaos tests to delay, corrupt or hang RPCs). The returned server is
// closed at cleanup; tests that kill it earlier close it themselves.
func startWorker(t *testing.T, cfg core.Config, wrap func(http.Handler) http.Handler) (string, *http.Server) {
	t.Helper()
	return serveWorker(t, NewWorker(cfg), wrap)
}

// serveWorker is startWorker over a caller-built worker, for tests that
// inspect its shard store.
func serveWorker(t *testing.T, w *Worker, wrap func(http.Handler) http.Handler) (string, *http.Server) {
	t.Helper()
	mux := http.NewServeMux()
	w.Register(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String(), srv
}

func serializeATM(t *testing.T, m *core.ATMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

func TestHealthStateMachine(t *testing.T) {
	var h health
	if s, _ := h.current(); s != Healthy {
		t.Fatalf("initial state = %v, want healthy", s)
	}
	if s := h.observe(false, 1, 3); s != Suspect {
		t.Fatalf("after 1 miss: %v, want suspect", s)
	}
	if s := h.observe(false, 1, 3); s != Suspect {
		t.Fatalf("after 2 misses: %v, want suspect", s)
	}
	if s := h.observe(false, 1, 3); s != Dead {
		t.Fatalf("after 3 misses: %v, want dead", s)
	}
	// A success revives even a dead worker and clears the miss history.
	if s := h.observe(true, 1, 3); s != Healthy {
		t.Fatalf("after success: %v, want healthy", s)
	}
	if _, misses := h.current(); misses != 0 {
		t.Fatalf("misses after success = %d, want 0", misses)
	}
	if s := h.observe(false, 2, 3); s != Healthy {
		t.Fatalf("single miss under suspectAfter=2: %v, want healthy", s)
	}
}

func TestExecFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := testCfg()
	a := partition(t, cfg, mat.RandomCOO(rng, 48, 32, 200))
	b := partition(t, cfg, mat.RandomCOO(rng, 32, 40, 150))
	aData := serializeATM(t, a)
	bData := serializeATM(t, b)
	aRef := shardRef{ShardKey: ShardKey{Name: "a", Shard: 0}, CRC: core.ChecksumBytes(aData), Bytes: int64(len(aData))}
	bRef := shardRef{ShardKey: ShardKey{Name: "b", Shard: 1}, CRC: core.ChecksumBytes(bData), Bytes: int64(len(bData)), TileIdx: []int{0}}
	hdr := execHeader{
		BAtomic: cfg.BAtomic, WriteThreshold: 0.25, SpGEMM: 1,
		ARefs: []shardRef{aRef}, BRefs: []shardRef{bRef}, Inline: []shardRef{aRef, bRef},
	}

	r, n, err := execFrameReader(hdr, [][]byte{aData, bData})
	if err != nil {
		t.Fatalf("execFrameReader: %v", err)
	}
	var frame bytes.Buffer
	if m, err := frame.ReadFrom(r); err != nil || m != n {
		t.Fatalf("frame read %d bytes (err %v), want %d", m, err, n)
	}
	gotHdr, inline, err := readExecFrame(&frame)
	if err != nil {
		t.Fatalf("readExecFrame: %v", err)
	}
	if !reflect.DeepEqual(gotHdr, hdr) {
		t.Fatalf("header round-trip: got %+v, want %+v", gotHdr, hdr)
	}
	for i, want := range []*core.ATMatrix{a, b} {
		ref := gotHdr.Inline[i]
		m, err := decodeShard(ref.ShardKey, ref.CRC, inline[i])
		if err != nil {
			t.Fatalf("decoding inline payload %d: %v", i, err)
		}
		if !bytes.Equal(serializeATM(t, m), serializeATM(t, want)) {
			t.Fatalf("inline payload %d did not round-trip byte-identically", i)
		}
	}
}

func TestExecFrameRejectsBadHeader(t *testing.T) {
	r, _, err := execFrameReader(execHeader{BAtomic: 12}, nil)
	if err != nil {
		t.Fatalf("execFrameReader: %v", err)
	}
	if _, _, err := readExecFrame(r); err == nil {
		t.Fatal("readExecFrame accepted non-power-of-two b_atomic")
	}
}

// TestDistributedMatchesLocal is the core transparency claim: a multiply
// sharded over three workers yields a byte-identical .atm stream to the
// single-node operator.
func TestDistributedMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := testCfg()
	a := partition(t, cfg, mat.RandomCOO(rng, 160, 128, 4000))
	b := partition(t, cfg, mat.RandomCOO(rng, 128, 144, 3500))

	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("local multiply: %v", err)
	}

	hc := testClient(t)
	var peers []string
	for i := 0; i < 3; i++ {
		addr, _ := startWorker(t, cfg, nil)
		peers = append(peers, addr)
	}
	coord := NewCoordinator(cfg, testOptions(hc), peers)
	defer coord.Close()

	dist, stats, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("distributed multiply: %v", err)
	}
	if err := dist.Validate(); err != nil {
		t.Fatalf("distributed result invalid: %v", err)
	}
	if !bytes.Equal(serializeATM(t, dist), serializeATM(t, local)) {
		t.Fatal("distributed product is not byte-identical to the local product")
	}
	if stats.Contributions == 0 {
		t.Fatal("no contributions aggregated from workers")
	}
	s := coord.Stats()
	if s.RemoteMultiplies != 1 || s.LocalFallbacks != 0 || s.LocalTasks != 0 {
		t.Fatalf("stats = %+v, want exactly one remote multiply and no local work", s)
	}
	if s.WorkersHealthy != 3 {
		t.Fatalf("workers healthy = %d, want 3", s.WorkersHealthy)
	}
	if s.TilesRerouted != 0 {
		t.Fatalf("tiles rerouted = %d, want 0 with all workers up", s.TilesRerouted)
	}
}

// TestDistributedVerifyAndRevalidate runs the distributed multiply with
// Freivalds verification enabled and re-checks the product against the
// dense reference.
func TestDistributedVerifyAndRevalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := testCfg()
	aCOO := mat.RandomCOO(rng, 96, 96, 2500)
	bCOO := mat.RandomCOO(rng, 96, 96, 2500)
	a := partition(t, cfg, aCOO)
	b := partition(t, cfg, bCOO)

	hc := testClient(t)
	addr1, _ := startWorker(t, cfg, nil)
	addr2, _ := startWorker(t, cfg, nil)
	coord := NewCoordinator(cfg, testOptions(hc), []string{addr1, addr2})
	defer coord.Close()

	opts := core.DefaultMultOptions()
	opts.Verify = 2
	dist, stats, err := coord.Multiply("", "", a, b, opts)
	if err != nil {
		t.Fatalf("distributed multiply with verify: %v", err)
	}
	if stats.VerifyTime <= 0 {
		t.Fatal("verification did not run")
	}
	want := mat.MulReference(aCOO.ToDense(), bCOO.ToDense())
	if !dist.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("distributed product differs from dense reference")
	}
}

// TestCoordinatorNoWorkersFallsBackLocal covers the degenerate cluster: a
// coordinator with an empty registry executes locally and says so.
func TestCoordinatorNoWorkersFallsBackLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	cfg := testCfg()
	a := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 800))
	b := partition(t, cfg, mat.RandomCOO(rng, 64, 64, 800))

	coord := NewCoordinator(cfg, testOptions(testClient(t)), nil)
	defer coord.Close()
	out, _, err := coord.Multiply("", "", a, b, core.DefaultMultOptions())
	if err != nil {
		t.Fatalf("fallback multiply: %v", err)
	}
	local, _, err := core.MultiplyOpt(a, b, cfg, core.DefaultMultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeATM(t, out), serializeATM(t, local)) {
		t.Fatal("fallback product differs from local product")
	}
	if s := coord.Stats(); s.LocalFallbacks != 1 || s.RemoteMultiplies != 0 {
		t.Fatalf("stats = %+v, want one local fallback", s)
	}
}

// TestCoordinatorRegisterIdempotent checks registration dedup and the
// health report plumbing.
func TestCoordinatorRegisterIdempotent(t *testing.T) {
	coord := NewCoordinator(testCfg(), testOptions(testClient(t)), []string{"127.0.0.1:9001"})
	defer coord.Close()
	if coord.Register("127.0.0.1:9001") {
		t.Fatal("re-registering the same address reported new")
	}
	if !coord.Register("127.0.0.1:9002") {
		t.Fatal("registering a second address reported known")
	}
	ws := coord.Workers()
	if len(ws) != 2 {
		t.Fatalf("workers = %d, want 2", len(ws))
	}
	for _, w := range ws {
		if w.State != "healthy" || w.Misses != 0 {
			t.Fatalf("fresh worker status = %+v, want healthy/0", w)
		}
	}
}

// TestCoordinatorHeartbeatMarksDead runs the real heartbeat loop against
// one live worker and one dead address and waits for the states to settle.
func TestCoordinatorHeartbeatMarksDead(t *testing.T) {
	cfg := testCfg()
	hc := testClient(t)
	addr, _ := startWorker(t, cfg, nil)

	// A listener that is immediately closed: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	opts := testOptions(hc)
	opts.HeartbeatPeriod = 10 * time.Millisecond
	opts.HeartbeatTimeout = 250 * time.Millisecond
	opts.DeadAfter = 2
	coord := NewCoordinator(cfg, opts, []string{addr, deadAddr})
	defer coord.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := coord.Workers()
		if ws[0].State == "healthy" && ws[1].State == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health did not settle: %+v", ws)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := coord.Stats()
	if s.WorkersHealthy != 1 || s.WorkersDead != 1 {
		t.Fatalf("gauges = %+v, want 1 healthy / 1 dead", s)
	}
}

// TestMain tears the shared scheduler runtime down after the package's
// tests so its worker goroutines never count against another package's
// leak accounting.
func TestMain(m *testing.M) {
	code := m.Run()
	sched.RuntimeFor(testCfg().Topology).Close()
	os.Exit(code)
}
