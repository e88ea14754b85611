package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// Two model families trained once and shared: hot-reload tests need two
// models that produce visibly different reports.
var (
	modelOnce sync.Once
	modelA    *secmetric.Model // logistic
	modelB    *secmetric.Model // naive bayes
	modelErr  error
)

func getModels(t *testing.T) (*secmetric.Model, *secmetric.Model) {
	t.Helper()
	modelOnce.Do(func() {
		c, err := secmetric.DefaultCorpus()
		if err != nil {
			modelErr = err
			return
		}
		modelA, err = secmetric.Train(c, secmetric.TrainConfig{Kind: secmetric.KindLogistic, Folds: 2, Seed: 5})
		if err != nil {
			modelErr = err
			return
		}
		modelB, err = secmetric.Train(c, secmetric.TrainConfig{Kind: secmetric.KindNaiveBayes, Folds: 2, Seed: 5})
		if err != nil {
			modelErr = err
		}
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelA, modelB
}

// miniSource builds a distinct MiniC program per index so distinct trees
// produce distinct vectors.
func miniSource(i int) string {
	return fmt.Sprintf(`
int limit = %d;

int handle(int dst, int n) {
	int data = read_input();
	strcpy(dst, data);
	if (n > limit) {
		n = limit;
	}
	return n;
}

int main(void) {
	int buf[%d];
	int n = handle(buf[0], %d);
	system(n);
	return n;
}
`, 16+i, 32+i, 64+i)
}

func wireTree(i int) api.Tree {
	return api.Tree{
		Name: fmt.Sprintf("tree-%d", i),
		Files: []api.File{
			{Path: "main.mc", Content: miniSource(i)},
			{Path: fmt.Sprintf("util%d.mc", i), Content: fmt.Sprintf("int helper_%d(int x) { return x + %d; }\n", i, i)},
		},
	}
}

// libTree mirrors toTree for the sequential-library half of the
// equivalence tests.
func libTree(t *testing.T, wt api.Tree) *metrics.Tree {
	t.Helper()
	tree, err := toTree(wt)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func canon(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var x any
	if err := json.Unmarshal(raw, &x); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(x, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func newTestServer(t *testing.T, reg *Registry, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestConcurrentScoreMatchesSequentialLibrary is the serving-equivalence
// contract: N goroutines scoring distinct trees against one daemon produce
// byte-identical reports to sequential library calls over the same trees
// and model.
func TestConcurrentScoreMatchesSequentialLibrary(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 4, QueueDepth: 64})

	const distinct = 4
	const perTree = 4
	want := make([]string, distinct)
	for i := 0; i < distinct; i++ {
		wt := wireTree(i)
		fv := core.ExtractFeatures(libTree(t, wt))
		want[i] = canon(t, mA.Score(wt.Name, fv))
	}

	var wg sync.WaitGroup
	errs := make(chan error, distinct*perTree)
	for i := 0; i < distinct; i++ {
		for j := 0; j < perTree; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(i)})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("tree %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				var sr api.ScoreResponse
				if err := json.Unmarshal(data, &sr); err != nil {
					errs <- err
					return
				}
				if got := canon(t, sr.Report); got != want[i] {
					errs <- fmt.Errorf("tree %d: daemon report differs from sequential library call", i)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAnalyzeMatchesLibrary checks the raw-vector endpoint against the
// library extraction.
func TestAnalyzeMatchesLibrary(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	wt := wireTree(7)
	resp, data := postJSON(t, ts.URL+"/v1/analyze", api.AnalyzeRequest{Tree: wt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	want := core.ExtractFeatures(libTree(t, wt))
	if canon(t, ar.Features) != canon(t, want) {
		t.Fatal("daemon vector differs from library extraction")
	}
	if ar.Diagnostics == nil || len(ar.Diagnostics.Files) != 2 {
		t.Fatalf("diagnostics = %+v", ar.Diagnostics)
	}
}

// TestCompareMatchesLibrary checks the CI-gate endpoint.
func TestCompareMatchesLibrary(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	oldT, newT := wireTree(1), wireTree(2)
	resp, data := postJSON(t, ts.URL+"/v1/compare", api.CompareRequest{Old: oldT, New: newT})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr api.CompareResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	oldFV := core.ExtractFeatures(libTree(t, oldT))
	newFV := core.ExtractFeatures(libTree(t, newT))
	want := mA.Compare(oldT.Name, oldFV, newT.Name, newFV)
	if canon(t, cr.Comparison) != canon(t, want) {
		t.Fatal("daemon comparison differs from library comparison")
	}
}

// TestFindingsEndpoint checks the findings stream and severity filtering.
func TestFindingsEndpoint(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	resp, data := postJSON(t, ts.URL+"/v1/findings", api.FindingsRequest{Tree: wireTree(3), MinSeverity: "high"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var fr api.FindingsResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Report.Total() == 0 {
		t.Fatal("no findings for a tree with strcpy+system")
	}
	for _, f := range fr.Report.Findings {
		if f.Severity < secmetric.SevHigh {
			t.Fatalf("finding below min severity: %+v", f)
		}
	}
	resp, data = postJSON(t, ts.URL+"/v1/findings", api.FindingsRequest{Tree: wireTree(3), MinSeverity: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad severity: status %d: %s", resp.StatusCode, data)
	}
}

// TestHotReloadUnderLoadNeverServesTornModel drives continuous scoring
// while the model file is atomically rewritten and reloaded; every
// response must match one of the two models' reports exactly — a torn or
// half-swapped model would produce bytes matching neither.
func TestHotReloadUnderLoadNeverServesTornModel(t *testing.T) {
	mA, mB := getModels(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "default.json")
	if err := secmetric.SaveModel(mA, path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, nil)
	if _, err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, reg, Config{Workers: 4, QueueDepth: 64})

	wt := wireTree(0)
	fv := core.ExtractFeatures(libTree(t, wt))
	wantA := canon(t, mA.Score(wt.Name, fv))
	wantB := canon(t, mB.Score(wt.Name, fv))
	if wantA == wantB {
		t.Fatal("test needs models that score differently")
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wt})
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Errorf("status %d: %s", resp.StatusCode, data):
					default:
					}
					return
				}
				var sr api.ScoreResponse
				if err := json.Unmarshal(data, &sr); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if got := canon(t, sr.Report); got != wantA && got != wantB {
					select {
					case errs <- errors.New("response matches neither model A nor model B: torn reload"):
					default:
					}
					return
				}
			}
		}()
	}
	models := []*secmetric.Model{mB, mA}
	for k := 0; k < 10; k++ {
		if err := secmetric.SaveModel(models[k%2], path); err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/v1/models/reload", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", k, resp.StatusCode, data)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.Reloads(); got != 11 { // initial Load + 10 reloads
		t.Fatalf("reloads = %d, want 11", got)
	}
}

// TestQueueOverflowReturns429 holds the single worker slot open via the
// test hook and asserts the next request is shed immediately with 429,
// then released work still completes.
func TestQueueOverflowReturns429(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	s := New(reg, Config{Workers: 1, QueueDepth: 0})
	acquired := make(chan struct{}, 1)
	gate := make(chan struct{})
	s.testHookAcquired = func(string) {
		acquired <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type scoreResult struct {
		code int
		body []byte
	}
	first := make(chan scoreResult, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(0)})
		first <- scoreResult{resp.StatusCode, data}
	}()
	<-acquired // the first request now owns the only slot

	resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(1)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429: %s", resp.StatusCode, data)
	}
	var we api.Error
	if err := json.Unmarshal(data, &we); err != nil || we.Code != api.CodeQueueFull {
		t.Fatalf("overflow envelope = %s (err %v)", data, err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate)
	r := <-first
	if r.code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", r.code, r.body)
	}
}

// TestRetryAfterDerivation pins the hint's bounds: always >= 1, never
// above 30, and scaling with backlog times observed service time.
func TestRetryAfterDerivation(t *testing.T) {
	reg := NewRegistry("", nil)
	s := New(reg, Config{Workers: 2})

	if got := s.retryAfterSeconds(); got < 1 || got > 30 {
		t.Fatalf("idle hint %d outside [1,30]", got)
	}
	// Backlog of 20 at ~2s each over 2 slots ≈ 20s estimate; jitter may
	// push it up but never past the cap.
	s.tel.observeService(2.0)
	s.tel.queued.Store(20)
	for i := 0; i < 50; i++ {
		got := s.retryAfterSeconds()
		if got < 20 || got > 30 {
			t.Fatalf("loaded hint %d outside [20,30]", got)
		}
	}
	// Saturated estimate clamps to 30 regardless of jitter.
	s.tel.observeService(60)
	s.tel.observeService(60)
	s.tel.queued.Store(100)
	for i := 0; i < 20; i++ {
		if got := s.retryAfterSeconds(); got != 30 {
			t.Fatalf("saturated hint %d, want 30", got)
		}
	}
}

// TestDeadlineReturns504 pins a request deadline below the time the test
// hook stalls, asserting the daemon reports 504 and keeps serving.
func TestDeadlineReturns504(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	s := New(reg, Config{Workers: 1})
	s.testHookAcquired = func(endpoint string) {
		if endpoint == "score" {
			time.Sleep(80 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(0), TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	var we api.Error
	if err := json.Unmarshal(data, &we); err != nil || we.Code != api.CodeDeadline {
		t.Fatalf("deadline envelope = %s (err %v)", data, err)
	}
	// The process is fine: healthz still answers and a normal request works.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after deadline: %v %v", hr, err)
	}
	hr.Body.Close()
}

// TestUnknownModel404 and bad requests.
func TestRequestValidation(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 1})

	resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Model: "nope", Tree: wireTree(0)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: api.Tree{Name: "empty"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty tree: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: api.Tree{
		Name: "unknown-only",
		Files: []api.File{
			{Path: "README.md", Content: "# hi"},
			{Path: ".hidden.mc", Content: "int main(void) { return 0; }"},
		},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unanalyzable tree: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: api.Tree{
		Name: "dup",
		Files: []api.File{
			{Path: "a.mc", Content: "int main(void) { return 0; }"},
			{Path: "a.mc", Content: "int main(void) { return 1; }"},
		},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate paths: status %d: %s", resp.StatusCode, data)
	}
}

// TestEveryRouteIsMounted: the daemon serves every route the shard router
// forwards, so no path the router accepts falls through to the mux's 404.
func TestEveryRouteIsMounted(t *testing.T) {
	_, ts := newTestServer(t, NewRegistry("", nil), Config{Workers: 1})
	for path := range api.ShardKeys() {
		resp, data := postJSON(t, ts.URL+path, struct{}{})
		var we api.Error
		if err := json.Unmarshal(data, &we); err != nil || we.Code == "" {
			t.Errorf("%s: status %d body %q is not an endpoint's answer", path, resp.StatusCode, data)
		}
	}
}

// TestRegistryRefusesSchemaMismatch writes a model with the schema field
// stripped (a pre-enrich-v2-era artifact) and asserts the load fails with
// the named error while the old snapshot keeps serving.
func TestRegistryRefusesSchemaMismatch(t *testing.T) {
	mA, _ := getModels(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "default.json")
	if err := secmetric.SaveModel(mA, good); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, nil)
	if _, err := reg.Load(); err != nil {
		t.Fatal(err)
	}

	// Strip the schema to simulate a stale artifact.
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var dto map[string]json.RawMessage
	if err := json.Unmarshal(raw, &dto); err != nil {
		t.Fatal(err)
	}
	delete(dto, "schema")
	stale, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stale.json"), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	before := reg.Snapshot()
	_, err = reg.Load()
	if !errors.Is(err, secmetric.ErrFeatureSchema) {
		t.Fatalf("load error = %v, want ErrFeatureSchema", err)
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("error does not name the refused file: %v", err)
	}
	if reg.Snapshot() != before {
		t.Fatal("failed reload replaced the snapshot")
	}

	// The daemon surfaces the refusal over HTTP and keeps serving.
	_, ts := newTestServer(t, reg, Config{Workers: 1})
	resp, data := postJSON(t, ts.URL+"/v1/models/reload", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after refused reload: status %d: %s", resp.StatusCode, data)
	}
}

// TestMetricsExposition exercises traffic then checks the text format.
func TestMetricsExposition(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(0)})
	postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Model: "nope", Tree: wireTree(0)})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`secmetricd_requests_total{endpoint="score",code="200"} 1`,
		`secmetricd_requests_total{endpoint="score",code="404"} 1`,
		`secmetricd_request_duration_seconds_count{endpoint="score"} 2`,
		`secmetricd_request_duration_seconds_bucket{endpoint="score",le="+Inf"} 2`,
		"secmetricd_in_flight_requests 0",
		"secmetricd_queued_requests 0",
		`secmetricd_rejected_total{reason="queue_full"} 0`,
		"secmetricd_featcache_hits_total",
		"secmetricd_featcache_misses_total",
		"secmetricd_models_loaded 1",
		"secmetricd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHealth checks the liveness body.
func TestHealth(t *testing.T) {
	mA, mB := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	reg.Register("candidate", mB)
	_, ts := newTestServer(t, reg, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.DefaultModel != "default" || len(h.Models) != 2 {
		t.Fatalf("health = %+v", h)
	}
}

// TestSharedCacheAcrossRequests scores the same tree twice and expects the
// second run to be served from the process-wide cache.
func TestSharedCacheAcrossRequests(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 1})

	wt := wireTree(9)
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wt})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score %d: status %d: %s", i, resp.StatusCode, data)
		}
		var sr api.ScoreResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		hits := sr.Diagnostics.CacheHits
		if i == 1 && hits != uint64(len(wt.Files)) {
			t.Fatalf("second run: cache hits = %d, want %d", hits, len(wt.Files))
		}
	}
}

// TestWithSlotContext ensures a canceled client context surfaces as the
// deadline path rather than a 500 (sanity for the error classification).
func TestCanceledRequestClassifiedAsDeadline(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	s := New(reg, Config{Workers: 1})
	started := make(chan struct{}, 1)
	s.testHookAcquired = func(string) {
		started <- struct{}{}
		time.Sleep(60 * time.Millisecond)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	raw, _ := json.Marshal(api.ScoreRequest{Tree: wireTree(0)})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/score", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		cancel()
	}()
	_, err = http.DefaultClient.Do(req)
	if err == nil {
		t.Fatal("canceled request succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestRankMatchesLibrary checks the function-ranking endpoint against the
// library call: same tree, byte-identical ranking.
func TestRankMatchesLibrary(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	wt := wireTree(5)
	resp, data := postJSON(t, ts.URL+"/v1/rank", api.RankRequest{Tree: wt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rr api.RankResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Ranking == nil || rr.Ranking.Functions == 0 {
		t.Fatalf("empty ranking: %+v", rr.Ranking)
	}
	want, err := secmetric.RankTree(context.Background(), libTree(t, wt), secmetric.RankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if canon(t, rr.Ranking) != canon(t, want) {
		t.Fatal("daemon ranking differs from library ranking")
	}

	// Top trims server-side.
	resp, data = postJSON(t, ts.URL+"/v1/rank", api.RankRequest{Tree: wt, Top: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var trimmed api.RankResponse
	if err := json.Unmarshal(data, &trimmed); err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Ranking.Ranked) != 1 || trimmed.Ranking.Functions != rr.Ranking.Functions {
		t.Fatalf("top=1 gave %d entries over %d functions",
			len(trimmed.Ranking.Ranked), trimmed.Ranking.Functions)
	}

	// A negative Top is a 400, not a 500.
	resp, data = postJSON(t, ts.URL+"/v1/rank", api.RankRequest{Tree: wt, Top: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("top=-1: status %d: %s", resp.StatusCode, data)
	}
}
