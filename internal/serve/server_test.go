package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/experiments"
)

// newTestServer builds a Server with tight limits and an httptest front
// end. Callers adjust opts before it is passed in.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	// Evaluations in handler-only tests run under a background base.
	s.evalBase = context.Background()
	return s, ts
}

// postMap sends one /v1/map request and returns the status, body and
// decoded envelope (nil when the body is not an envelope).
func postMap(t *testing.T, url, body string, hdr map[string]string) (int, []byte, *Envelope) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/map", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	env := &Envelope{}
	if json.Unmarshal(data, env) != nil {
		env = nil
	}
	return resp.StatusCode, data, env
}

const fig5Base = `{"kernel":"fig5","machine":"dunnington","scheme":"base"}`

// TestServeMapComputedThenCached: the first request computes, the second
// is an LRU hit, and both bodies satisfy the envelope contract.
func TestServeMapComputedThenCached(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	status, body, env := postMap(t, ts.URL, fig5Base, nil)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", status, body)
	}
	if err := check.VerifyEnvelope(status, body); err != nil {
		t.Fatal(err)
	}
	if env.Result.Source != "computed" {
		t.Errorf("first request source = %q, want computed", env.Result.Source)
	}
	if env.Result.TotalCycles == 0 || len(env.Result.MissRates) == 0 {
		t.Errorf("result carries no simulation profile: %+v", env.Result)
	}

	status, body, env = postMap(t, ts.URL, fig5Base, nil)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d, body %s", status, body)
	}
	if env.Result.Source != "lru" {
		t.Errorf("second request source = %q, want lru", env.Result.Source)
	}
	if st := s.CurrentStatus(); st.Computed != 1 || st.LRUHits != 1 {
		t.Errorf("counters computed/lruHits = %d/%d, want 1/1", st.Computed, st.LRUHits)
	}
}

// TestServeMapValidateRejections: requests describing impossible
// experiments answer structured 400 validate envelopes.
func TestServeMapValidateRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []string{
		`{"machine":"dunnington"}`,                                    // no kernel
		`{"kernel":"no-such-kernel","machine":"dunnington"}`,          // unknown kernel
		`{"kernel":"fig5"}`,                                           // no machine
		`{"kernel":"fig5","machine":"no-such-machine"}`,               // unknown machine
		`{"kernel":"fig5","machine":"dunnington","scheme":"quantum"}`, // unknown scheme
		`{"kernel":"fig5","kernel_source":"x","machine":"dunnington"}`,
		`{"kernel":"fig5","machine":"dunnington","passes":1000}`,    // over maxUploadPasses
		`{"kernel":"fig5","machine":"dunnington","block_bytes":-5}`, // negative, not AutoBlockBytes
		// Negative latencies would wrap into a huge unsigned cycle count.
		`{"kernel":"fig5","scheme":"base","machine_json":{"name":"neg","memLatency":-500,"root":{"children":[` +
			`{"level":2,"sizeBytes":262144,"assoc":8,"lineBytes":64,"latency":-10,"children":[` +
			`{"level":1,"sizeBytes":32768,"assoc":8,"lineBytes":64,"latency":3,"children":[{}]},` +
			`{"level":1,"sizeBytes":32768,"assoc":8,"lineBytes":64,"latency":3,"children":[{}]}]}]}}}`,
	}
	for _, body := range cases {
		status, data, env := postMap(t, ts.URL, body, nil)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", body, status, data)
			continue
		}
		if err := check.VerifyEnvelope(status, data); err != nil {
			t.Errorf("%s: %v", body, err)
		}
		if env.Error.Stage != "validate" {
			t.Errorf("%s: stage %q, want validate", body, env.Error.Stage)
		}
	}
}

// TestServeMapTransportRejections: method, decode and body-size failures
// each answer their deliberate status with a well-formed envelope.
func TestServeMapTransportRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{BodyLimit: 256})

	resp, err := http.Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
	if err := check.VerifyEnvelope(resp.StatusCode, data); err != nil {
		t.Errorf("GET: %v", err)
	}

	status, data, env := postMap(t, ts.URL, `{"kernel": truncated`, nil)
	if status != http.StatusBadRequest || env.Error.Stage != StageDecode {
		t.Errorf("malformed JSON: status %d stage %v, want 400 decode (body %s)", status, env, data)
	}

	big := `{"kernel":"` + strings.Repeat("x", 512) + `"}`
	status, data, env = postMap(t, ts.URL, big, nil)
	if status != http.StatusRequestEntityTooLarge || env.Error.Stage != StageBodySize {
		t.Errorf("oversized body: status %d, want 413 body-size (body %s)", status, data)
	}
	if err := check.VerifyEnvelope(status, data); err != nil {
		t.Errorf("oversized body: %v", err)
	}
}

// TestServeMapQueueFullAndShed: with the admission queue artificially
// occupied, cold requests shed (watermark) or bounce (full) with retryable
// 429 envelopes — while an LRU hit keeps serving through the overload.
func TestServeMapQueueFullAndShed(t *testing.T) {
	s, ts := newTestServer(t, Options{Queue: 4, ShedWatermark: 0.5})

	// Prime the cache while the server is idle.
	if status, body, _ := postMap(t, ts.URL, fig5Base, nil); status != http.StatusOK {
		t.Fatalf("prime: status %d, body %s", status, body)
	}

	// Occupy the queue past the shed watermark (mark = 2 of 4).
	for i := 0; i < 3; i++ {
		s.queue <- struct{}{}
	}
	defer func() {
		for i := 0; i < 3; i++ {
			<-s.queue
		}
	}()

	status, data, env := postMap(t, ts.URL, `{"kernel":"fig5","machine":"dunnington","scheme":"local"}`, nil)
	if status != http.StatusTooManyRequests || env.Error.Stage != StageShed {
		t.Fatalf("over watermark: status %d, want 429 shed (body %s)", status, data)
	}
	if err := check.VerifyEnvelope(status, data); err != nil {
		t.Fatal(err)
	}
	if !env.Error.Retryable {
		t.Error("shed envelope is not marked retryable")
	}

	// Cached results still serve above the watermark.
	if status, body, env := postMap(t, ts.URL, fig5Base, nil); status != http.StatusOK || env.Result.Source != "lru" {
		t.Fatalf("cache hit during shed: status %d, body %s", status, body)
	}

	// Fill the queue completely: queue-full, not shed.
	s.queue <- struct{}{}
	defer func() { <-s.queue }()
	status, data, env = postMap(t, ts.URL, `{"kernel":"fig5","machine":"dunnington","scheme":"ta"}`, nil)
	if status != http.StatusTooManyRequests || env.Error.Stage != StageQueueFull {
		t.Fatalf("full queue: status %d, want 429 queue-full (body %s)", status, data)
	}
}

// TestServeMapDraining: once draining, evaluation endpoints answer 503
// envelopes and readyz flips to 503, while healthz stays alive.
func TestServeMapDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.draining.Store(true)

	status, data, env := postMap(t, ts.URL, fig5Base, nil)
	if status != http.StatusServiceUnavailable || env.Error.Stage != StageDraining {
		t.Fatalf("draining map: status %d, want 503 draining (body %s)", status, data)
	}
	if err := check.VerifyEnvelope(status, data); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", resp.StatusCode)
	}
}

// TestServePanicContained: a panicking handler answers a 503 handler-panic
// envelope instead of an empty reply, and the server keeps serving.
func TestServePanicContained(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.contained(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/map", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("panicked handler answered %d, want 503", rr.Code)
	}
	if err := check.VerifyEnvelope(rr.Code, rr.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if st := s.CurrentStatus(); st.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", st.Panics)
	}

	// Header already sent: the boundary must not write a second one (the
	// recorder would record a superfluous WriteHeader as a code change).
	h = s.contained(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late kaboom")
	}))
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/map", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("late panic rewrote the status to %d", rr.Code)
	}
}

// TestRequestTimeoutHeader: the Request-Timeout header is parsed as a Go
// duration or whole seconds, clamped to MaxTimeout, and ignored when
// nonsense.
func TestRequestTimeoutHeader(t *testing.T) {
	s, err := New(Options{DefaultTimeout: 30 * time.Second, MaxTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 30 * time.Second},
		{"2s", 2 * time.Second},
		{"5", 5 * time.Second},
		{"500ms", 500 * time.Millisecond},
		{"10m", time.Minute}, // clamped
		{"-3s", 30 * time.Second},
		{"soon", 30 * time.Second},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/map", nil)
		if c.header != "" {
			r.Header.Set("Request-Timeout", c.header)
		}
		if got := s.requestTimeout(r); got != c.want {
			t.Errorf("Request-Timeout %q: %v, want %v", c.header, got, c.want)
		}
	}
}

// TestServeMapBudgetTimeout: a vanishingly small Request-Timeout expires
// before the evaluation finishes and answers a retryable timeout envelope.
func TestServeMapBudgetTimeout(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, data, env := postMap(t, ts.URL, fig5Base, map[string]string{"Request-Timeout": "1ns"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", status, data)
	}
	if err := check.VerifyEnvelope(status, data); err != nil {
		t.Fatal(err)
	}
	if env.Error.Stage != "timeout" || !env.Error.Retryable {
		t.Errorf("envelope = %+v, want retryable timeout", env.Error)
	}
}

// TestServeAdhocKeysByDigest: two different kernel sources sharing a name
// must not collide in the cache — their keys differ by content digest.
func TestServeAdhocKeysByDigest(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src1 := "array B[3072]\nfor (j = 512; j <= 2559) {\n  B[j] += B[j + 512];\n}\n"
	src2 := "array B[3072]\nfor (j = 512; j <= 2559) {\n  B[j] += B[j - 512];\n}\n"
	keys := make(map[string]bool)
	for _, src := range []string{src1, src2} {
		p := &parsed{req: &MapRequest{KernelSource: src, Machine: "dunnington", Scheme: "base"}}
		if err := s.resolve(p); err != nil {
			t.Fatal(err)
		}
		if !p.adhoc {
			t.Error("kernel_source request not classified ad-hoc")
		}
		if !strings.Contains(p.key, "|src=") {
			t.Errorf("ad-hoc key carries no source digest: %s", p.key)
		}
		keys[p.key] = true
	}
	if len(keys) != 2 {
		t.Fatalf("distinct sources collided on one key: %v", keys)
	}
}

// TestServeCheckpointWarmStart: a second server pointed at the first's
// checkpoint restores its records into the LRU and serves them without
// recomputing; a concurrent open of the live checkpoint is rejected by the
// lockfile.
func TestServeCheckpointWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	s1, ts1 := newTestServer(t, Options{Checkpoint: path})
	if status, body, _ := postMap(t, ts1.URL, fig5Base, nil); status != http.StatusOK {
		t.Fatalf("compute: status %d, body %s", status, body)
	}

	// The live checkpoint is locked: a CLI sweep (or second server) on the
	// same file must be refused.
	if _, err := experiments.OpenCheckpoint(path, experiments.GridSignature(ServeGrid)); err == nil {
		t.Fatal("concurrent open of the live server checkpoint was accepted")
	}

	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	s2.evalBase = context.Background()
	status, body, env := postMap(t, ts2.URL, fig5Base, nil)
	if status != http.StatusOK {
		t.Fatalf("warm start: status %d, body %s", status, body)
	}
	if env.Result.Source != "lru" {
		t.Errorf("warm-start source = %q, want lru (restored from checkpoint)", env.Result.Source)
	}
	if st := s2.CurrentStatus(); st.Computed != 0 {
		t.Errorf("warm start recomputed %d cells", st.Computed)
	}
}

// TestServeGracefulDrain: canceling the serve context drains in-flight
// work and Serve returns nil; the listener refuses new connections after.
func TestServeGracefulDrain(t *testing.T) {
	s, err := New(Options{DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/v1/map", "application/json", bytes.NewReader([]byte(fig5Base)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain request: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestStatuszShape: /statusz is well-formed JSON carrying the bounded
// state the chaos harness asserts on.
func TestStatuszShape(t *testing.T) {
	_, ts := newTestServer(t, Options{LRUSize: 7})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := &Status{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		t.Fatal(err)
	}
	if st.LRUCap != 7 || st.QueueCap != 64 {
		t.Errorf("statusz caps = %+v, want LRUCap 7, QueueCap 64", st)
	}
}

// TestErrorEnvelopesNeverPlainText sweeps every failure-path response body
// this file exercised plus a direct unknown path, asserting the error
// contract from the client side: non-200 implies a decodable envelope.
func TestErrorEnvelopesNeverPlainText(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{"", "{", `{"kernel":"fig5"}`} {
		status, data, _ := postMap(t, ts.URL, body, nil)
		if status == http.StatusOK {
			t.Errorf("%q: unexpectedly succeeded", body)
			continue
		}
		if err := check.VerifyEnvelope(status, data); err != nil {
			t.Errorf("%q: %v", body, err)
		}
	}
}
