package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fakeServer answers /v1/multiply with status and, on success, the shape.
func fakeServer(t *testing.T, status int, got shape) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		if status == http.StatusOK {
			_ = json.NewEncoder(w).Encode(jobResponse{shape: got, Wall: 2e6, Queue: 1e6})
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func multiplyOnce(t *testing.T, base string, want shape) (*client, bool) {
	t.Helper()
	c := newClient(0, base)
	defer c.close()
	c.timed = true
	ok := c.compute("A", "/v1/multiply", map[string]any{"a": "A", "b": "A"}, want)
	return c, ok
}

func TestRefusedRequestCountsAsFailed(t *testing.T) {
	want := shape{4, 4, 7}
	srv := fakeServer(t, http.StatusTooManyRequests, want)
	c, ok := multiplyOnce(t, srv.URL, want)
	if ok || c.st.attempted != 1 || c.st.failed != 1 || c.st.wrong != 0 {
		t.Errorf("429: ok=%v stats=%+v; want one attempted, one failed, none wrong", ok, c.st)
	}
	if len(c.st.compute) != 0 {
		t.Error("a refused request left a latency sample")
	}
}

func TestServerErrorCountsAsFailedAndMakesTheRunIncorrect(t *testing.T) {
	// atserve answers 500 when a product fails its Freivalds check twice.
	want := shape{4, 4, 7}
	srv := fakeServer(t, http.StatusInternalServerError, want)
	c, ok := multiplyOnce(t, srv.URL, want)
	if ok || c.st.attempted != 1 || c.st.failed != 1 {
		t.Errorf("500: ok=%v stats=%+v; want one attempted and failed", ok, c.st)
	}
	if r := (&httpRun{httpStats: c.st}); r.correct() {
		t.Error("a run with a failed request counts as correct")
	}
}

func TestServerVerifyFailureMakesTheRunIncorrect(t *testing.T) {
	if r := (&httpRun{httpStats: newHTTPStats()}); !r.correct() {
		t.Error("a clean run counts as incorrect")
	}
	n, err := verifyFailures(map[string]float64{"atserve_verify_failed_total": 1})
	if err != nil || n != 1 {
		t.Fatalf("verifyFailures = %v, %v", n, err)
	}
	if r := (&httpRun{httpStats: newHTTPStats(), verifyFailed: n}); r.correct() {
		t.Error("a run whose server caught a wrong product counts as correct")
	}
	if _, err := verifyFailures(map[string]float64{"atserve_retries_total": 0}); err == nil {
		t.Error("a scrape without the verify counter was accepted")
	}
}

func TestWrongProductCountsAsFailedAndWrong(t *testing.T) {
	srv := fakeServer(t, http.StatusOK, shape{4, 4, 6})
	c, ok := multiplyOnce(t, srv.URL, shape{4, 4, 7})
	if ok || c.st.attempted != 1 || c.st.failed != 1 || c.st.wrong != 1 {
		t.Errorf("nnz mismatch: ok=%v stats=%+v; want one attempted, failed and wrong", ok, c.st)
	}
}

func TestTransportErrorCountsAsFailed(t *testing.T) {
	srv := fakeServer(t, http.StatusOK, shape{})
	base := srv.URL
	srv.Close()
	c, ok := multiplyOnce(t, base, shape{})
	if ok || c.st.attempted != 1 || c.st.failed != 1 {
		t.Errorf("closed server: ok=%v stats=%+v; want one attempted and failed", ok, c.st)
	}
}

func TestSuccessRecordsServerTimings(t *testing.T) {
	want := shape{4, 4, 7}
	srv := fakeServer(t, http.StatusOK, want)
	c, ok := multiplyOnce(t, srv.URL, want)
	if !ok || c.st.failed != 0 || len(c.st.compute["A"]) != 1 {
		t.Fatalf("ok=%v stats=%+v", ok, c.st)
	}
	if c.st.queue[0] != 1 || c.st.wall[0] != 2 || math.Abs(c.st.http[0]-(c.st.compute["A"][0]-3)) > 1e-9 {
		t.Errorf("queue %v wall %v http %v latency %v: want http = latency - 3ms", c.st.queue, c.st.wall, c.st.http, c.st.compute)
	}
}

func TestParseCPULineSumsTheFirstEightFields(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	steal, total, err := parseCPULine("cpu  944001 0 155876 972673 774 0 14176 123656 500 0")
	if err != nil || steal != 123656 || total != 944001+155876+972673+774+14176+123656 {
		t.Errorf("got steal %d, total %d, %v", steal, total, err)
	}
	if _, _, err := parseCPULine("cpu0 1 2 3"); err == nil {
		t.Error("a short line was accepted")
	}
}
