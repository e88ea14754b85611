package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/api"
)

// TestRingConsistency: one key always lands on one backend, every backend
// owns a usable share of the keyspace, and the mapping does not depend on
// the order the -route list names the backends.
func TestRingConsistency(t *testing.T) {
	addrs := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := buildRing(addrs)
	r2 := buildRing([]string{addrs[2], addrs[0], addrs[1]}) // reordered

	first := func(r ring, key string) string {
		got := ""
		// r2's indices point into its own (reordered) list.
		var list []string
		if &r.vnodes[0] == &r1.vnodes[0] {
			list = addrs
		} else {
			list = []string{addrs[2], addrs[0], addrs[1]}
		}
		r.walk(key, func(i int) bool { got = list[i]; return true })
		return got
	}

	owned := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("tree:repo-%d", i)
		a, b := first(r1, key), first(r2, key)
		if a != b {
			t.Fatalf("key %s maps to %s vs %s after reordering the backend list", key, a, b)
		}
		if a2 := first(r1, key); a2 != a {
			t.Fatalf("key %s not stable: %s then %s", key, a, a2)
		}
		owned[a]++
	}
	for _, addr := range addrs {
		if owned[addr] == 0 {
			t.Errorf("backend %s owns no keys out of 300 (distribution %v)", addr, owned)
		}
	}

	// The walk enumerates each backend exactly once — the failover order.
	var seen []int
	r1.walk("tree:any", func(i int) bool { seen = append(seen, i); return false })
	if len(seen) != len(addrs) {
		t.Fatalf("walk visited %d backends, want %d", len(seen), len(addrs))
	}
	dup := map[int]bool{}
	for _, i := range seen {
		if dup[i] {
			t.Fatalf("walk visited backend %d twice", i)
		}
		dup[i] = true
	}
}

// TestRouteKey pins the shard key per route, including the failure modes
// that must answer 400 instead of guessing a shard.
func TestRouteKey(t *testing.T) {
	keys := api.ShardKeys()
	cases := []struct {
		path, body, want, wantErr string
	}{
		{"/v1/score", `{"tree":{"name":"r1"}}`, "tree:r1", ""},
		{"/v1/analyze/stream", `{"tree":{"name":"r2"}}`, "tree:r2", ""},
		{"/v1/delta", `{"repo_id":"app","changeset":{}}`, "repo:app", ""},
		{"/v1/delta", `{"changeset":{}}`, "", "repo_id is required"},
		{"/v1/compare", `{"old":{"name":"x"},"new":{"name":"y"}}`, "tree:y", ""},
		// An unnamed tree keys under the subject the daemon records it as.
		{"/v1/rank", `{"tree":{"files":[]}}`, "tree:tree", ""},
		{"/v1/compare", `{"old":{"name":"x"},"new":{}}`, "tree:tree", ""},
		{"/v1/query", `{"query":"repo = \"web\" and score > 0.5"}`, "tree:web", ""},
		{"/v1/query", `{"query":"score > 0.5 and repo = \"web\""}`, "tree:web", ""},
		{"/v1/query", `{"query":"score > 0.5"}`, "", "needs a repo"},
		// repo equality under OR or NOT does not pin a shard.
		{"/v1/query", `{"query":"repo = \"a\" or repo = \"b\""}`, "", "needs a repo"},
		{"/v1/query", `{"query":"not repo = \"a\""}`, "", "needs a repo"},
		{"/v1/score", `{bad json`, "", "decode request"},
	}
	for _, c := range cases {
		got, err := keys[c.path]([]byte(c.body))
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("routeKey(%s, %s) err = %v, want containing %q", c.path, c.body, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("routeKey(%s, %s): %v", c.path, c.body, err)
			continue
		}
		if got != c.want {
			t.Errorf("routeKey(%s, %s) = %q, want %q", c.path, c.body, got, c.want)
		}
	}
}

// echoBackend answers /healthz with 200 and any /v1/ POST with a JSON body
// identifying itself, so tests can see which backend served a key.
func echoBackend(t *testing.T, name string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"backend": name, "echo": string(body)})
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// TestProxyPinsRepoToBackend: many requests for one tree all hit one
// backend, and different trees spread across the fleet.
func TestProxyPinsRepoToBackend(t *testing.T) {
	b1, h1 := echoBackend(t, "b1")
	b2, h2 := echoBackend(t, "b2")
	b3, h3 := echoBackend(t, "b3")
	_, ts := newTestRouter(t, Config{Backends: []string{b1.URL, b2.URL, b3.URL}})

	var home string
	for i := 0; i < 5; i++ {
		resp, body := post(t, ts.URL+"/v1/score", `{"tree":{"name":"pinned-repo"}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got struct{ Backend string }
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		if home == "" {
			home = got.Backend
		} else if got.Backend != home {
			t.Fatalf("request %d for one repo served by %s, earlier by %s", i, got.Backend, home)
		}
	}

	for i := 0; i < 60; i++ {
		post(t, ts.URL+"/v1/score", fmt.Sprintf(`{"tree":{"name":"spread-%d"}}`, i))
	}
	for name, h := range map[string]*atomic.Int64{"b1": h1, "b2": h2, "b3": h3} {
		if h.Load() == 0 {
			t.Errorf("backend %s served nothing across 60 distinct repos", name)
		}
	}
}

// TestProxyForwardsApplicationErrors: backend 429/504/409 envelopes cross
// the router verbatim — status, Retry-After, and body — with no retry.
func TestProxyForwardsApplicationErrors(t *testing.T) {
	var calls atomic.Int64
	ts429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		calls.Add(1)
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.Error{Code: api.CodeQueueFull, Error: "queue full"})
	}))
	t.Cleanup(ts429.Close)
	_, ts := newTestRouter(t, Config{Backends: []string{ts429.URL}})

	resp, body := post(t, ts.URL+"/v1/score", `{"tree":{"name":"busy"}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q did not cross the router", got)
	}
	var e api.Error
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Code != api.CodeQueueFull {
		t.Errorf("body %q, want the backend's queue_full envelope", body)
	}
	if calls.Load() != 1 {
		t.Errorf("backend saw %d calls, want 1 (application errors are never retried)", calls.Load())
	}
}

// TestProxyFailsOverOnTransportError: a dead backend is ejected on first
// contact and its keys slide to the ring successor; the client still gets
// an answer.
func TestProxyFailsOverOnTransportError(t *testing.T) {
	alive, _ := echoBackend(t, "alive")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	deadAddr := dead.URL
	dead.Close() // nothing listens here any more

	rt, ts := newTestRouter(t, Config{
		Backends:       []string{alive.URL, deadAddr},
		HealthInterval: time.Hour, // probes stay out of this test
	})

	// Every key gets served regardless of which backend it hashes to.
	for i := 0; i < 20; i++ {
		resp, body := post(t, ts.URL+"/v1/score", fmt.Sprintf(`{"tree":{"name":"r%d"}}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key r%d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	// The dead backend was ejected on the first failed dial.
	for _, b := range rt.backends {
		if b.addr == strings.TrimRight(deadAddr, "/") && b.healthy.Load() {
			t.Error("dead backend still marked healthy after a failed proxy")
		}
	}

	// Router health reflects it.
	resp, body := post(t, ts.URL+"/v1/score", `{"tree":{"name":"final"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final: %d %s", resp.StatusCode, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health api.RouterHealth
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	healthyCount := 0
	for _, b := range health.Backends {
		if b.Healthy {
			healthyCount++
		}
	}
	if healthyCount != 1 {
		t.Errorf("healthz reports %d healthy backends, want 1: %+v", healthyCount, health.Backends)
	}
}

// TestHealthProbeEjectsAndReadmits: a backend that starts failing probes
// is ejected after failThreshold consecutive failures and re-admitted
// after one success.
func TestHealthProbeEjectsAndReadmits(t *testing.T) {
	var down atomic.Bool
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(b.Close)

	rt, _ := newTestRouter(t, Config{
		Backends:       []string{b.URL},
		HealthInterval: 5 * time.Millisecond,
	})
	be := rt.backends[0]

	waitHealthy := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for be.healthy.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("backend never became %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	down.Store(true)
	waitHealthy(false, "ejected")
	down.Store(false)
	waitHealthy(true, "re-admitted")
}

// TestNoBackendAnswers503: with the whole fleet ejected the router says
// so, with the stable no_backend code.
func TestNoBackendAnswers503(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := dead.URL
	dead.Close()
	_, ts := newTestRouter(t, Config{Backends: []string{addr}, HealthInterval: time.Hour})

	// First request ejects on the transport error; walk exhausts the ring.
	resp, body := post(t, ts.URL+"/v1/score", `{"tree":{"name":"x"}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d body %s, want 503", resp.StatusCode, body)
	}
	var e api.Error
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Code != api.CodeNoBackend {
		t.Errorf("body %q, want code %q", body, api.CodeNoBackend)
	}
}

// TestBodyCapAnswers413 and bad keys answer 400.
func TestProxyRequestValidation(t *testing.T) {
	b, _ := echoBackend(t, "b")
	_, ts := newTestRouter(t, Config{Backends: []string{b.URL}, MaxBodyBytes: 64})

	resp, body := post(t, ts.URL+"/v1/score", `{"tree":{"name":"`+strings.Repeat("x", 200)+`"}}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d %s, want 413", resp.StatusCode, body)
	}

	resp, body = post(t, ts.URL+"/v1/delta", `{"changeset":{}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing repo_id: status %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/query", `{"query":"score > 0"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unrouteable query: status %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/bogus", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("undeclared route: status %d %s, want 404", resp.StatusCode, body)
	}
}

// TestNewRefusesDuplicateBackend: a backend list naming one daemon twice,
// here once with a trailing slash, is refused with both positions named.
// Accepted, it ran two health loops against the daemon, posted each reload
// to it twice, and wrote each of its /metrics series twice, which a
// Prometheus scrape rejects as duplicate samples.
func TestNewRefusesDuplicateBackend(t *testing.T) {
	rt, err := New(Config{Backends: []string{"http://a", "http://b", "http://a/"}})
	if err == nil {
		rt.Close()
		t.Fatal("duplicate backend accepted")
	}
	if !strings.Contains(err.Error(), "backends 0 and 2") {
		t.Errorf("err = %v, want it to name backends 0 and 2", err)
	}
}

// TestReloadBroadcasts: reload hits every healthy backend, not just the
// key's shard.
func TestReloadBroadcasts(t *testing.T) {
	var r1, r2 atomic.Int64
	mk := func(hits *atomic.Int64) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/models/reload" {
				hits.Add(1)
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok"}`)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	b1, b2 := mk(&r1), mk(&r2)
	_, ts := newTestRouter(t, Config{Backends: []string{b1.URL, b2.URL}})

	resp, body := post(t, ts.URL+"/v1/models/reload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	if r1.Load() != 1 || r2.Load() != 1 {
		t.Errorf("reload reached (%d, %d) backends, want (1, 1)", r1.Load(), r2.Load())
	}
}

// TestRouterMetricsConformance: every family on the router's /metrics has
// HELP and TYPE, and the per-backend series are present.
func TestRouterMetricsConformance(t *testing.T) {
	b, _ := echoBackend(t, "b")
	_, ts := newTestRouter(t, Config{Backends: []string{b.URL}})
	post(t, ts.URL+"/v1/score", `{"tree":{"name":"m"}}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(data)

	seen := map[string]map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) < 3 {
			continue
		}
		kind, name := parts[1], parts[2]
		if seen[name] == nil {
			seen[name] = map[string]bool{}
		}
		seen[name][kind] = true
	}
	for _, fam := range []string{
		"secmetric_router_backend_up",
		"secmetric_router_backend_requests_total",
		"secmetric_router_backend_errors_total",
		"secmetric_router_uptime_seconds",
	} {
		if !seen[fam]["HELP"] || !seen[fam]["TYPE"] {
			t.Errorf("family %s missing HELP/TYPE", fam)
		}
		if !strings.Contains(body, fam) {
			t.Errorf("metrics missing %s", fam)
		}
	}
	if !strings.Contains(body, "secmetric_router_backend_requests_total{backend=") {
		t.Error("no per-backend request series")
	}
}
