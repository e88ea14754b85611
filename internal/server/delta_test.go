package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// deltaTree returns a wire tree of n MiniC files with per-index content.
func deltaTree(n int) []api.File {
	files := make([]api.File, n)
	for i := range files {
		files[i] = api.File{Path: fmt.Sprintf("src/f%02d.mc", i), Content: miniSource(i)}
	}
	return files
}

func postDelta(t *testing.T, url string, req api.DeltaRequest) (*http.Response, api.DeltaResponse, api.Error) {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/delta", req)
	var out api.DeltaResponse
	var we api.Error
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decode delta response: %v: %s", err, data)
		}
	} else if err := json.Unmarshal(data, &we); err != nil {
		t.Fatalf("decode error envelope: %v: %s", err, data)
	}
	return resp, out, we
}

// coldScore scores a whole tree through /v1/score.
func coldScore(t *testing.T, url string, tree api.Tree) api.ScoreResponse {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/score", api.ScoreRequest{Tree: tree})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold score %s: status %d: %s", tree.Name, resp.StatusCode, data)
	}
	var out api.ScoreResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertFeatureParity requires bit-identical vectors, feature by feature.
func assertFeatureParity(t *testing.T, want, got metrics.FeatureVector) {
	t.Helper()
	for _, name := range metrics.FeatureNames {
		if math.Float64bits(want[name]) != math.Float64bits(got[name]) {
			t.Fatalf("feature %s: incremental %v != cold %v", name, got[name], want[name])
		}
	}
}

// TestDeltaSeedThenIncrementalParity drives the endpoint's contract: a
// seeding changeset scores without a comparison, a follow-up modification
// produces one, both reports and the comparison are byte-identical to cold
// /v1/score and /v1/compare of the full trees, and after both the
// session's vector is bit-identical to a cold /v1/analyze of the full
// current tree.
func TestDeltaSeedThenIncrementalParity(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	s, ts := newTestServer(t, reg, Config{Workers: 4, QueueDepth: 16})

	seed := api.DeltaRequest{RepoID: "repo-a", Changeset: api.Changeset{Added: deltaTree(4)}}
	resp, out, _ := postDelta(t, ts.URL, seed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}
	if out.Seq != 1 || out.Files != 4 || out.Report == nil || out.Comparison != nil {
		t.Fatalf("seed response: seq=%d files=%d report=%v cmp=%v", out.Seq, out.Files, out.Report, out.Comparison)
	}
	if out.Diagnostics == nil || len(out.Diagnostics.Files) != 4 {
		t.Fatalf("seed diagnostics should cover all 4 files: %+v", out.Diagnostics)
	}
	// The seed's report is byte-identical to a cold /v1/score of the same
	// tree under the delta endpoint's subject name.
	seedTree := api.Tree{Name: "repo-a@1", Files: deltaTree(4)}
	if got, want := canon(t, out.Report), canon(t, coldScore(t, ts.URL, seedTree).Report); got != want {
		t.Fatalf("seed report differs from cold score:\n%s\nvs\n%s", got, want)
	}

	// One modification, one removal, one addition in a single changeset.
	change := api.DeltaRequest{RepoID: "repo-a", Changeset: api.Changeset{
		Modified: []api.File{{Path: "src/f01.mc", Content: miniSource(77)}},
		Removed:  []string{"src/f03.mc"},
		Added:    []api.File{{Path: "src/new.mc", Content: miniSource(88)}},
	}}
	resp, out, _ = postDelta(t, ts.URL, change)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("change: status %d", resp.StatusCode)
	}
	if out.Seq != 2 || out.Files != 4 || out.Comparison == nil {
		t.Fatalf("change response: seq=%d files=%d cmp=%v", out.Seq, out.Files, out.Comparison)
	}
	if len(out.Diagnostics.Files) != 2 {
		t.Fatalf("change diagnostics should cover only the 2 re-analyzed files: %+v", out.Diagnostics.Files)
	}

	// Cold truth: a fresh full analysis of the final tree.
	final := api.Tree{Name: "repo-a", Files: []api.File{
		{Path: "src/f00.mc", Content: miniSource(0)},
		{Path: "src/f01.mc", Content: miniSource(77)},
		{Path: "src/f02.mc", Content: miniSource(2)},
		{Path: "src/new.mc", Content: miniSource(88)},
	}}
	// The incremental report and comparison are byte-identical to cold
	// /v1/score and /v1/compare over the full trees: the incremental path
	// changes the cost, never the bytes.
	changed := api.Tree{Name: "repo-a@2", Files: final.Files}
	if got, want := canon(t, out.Report), canon(t, coldScore(t, ts.URL, changed).Report); got != want {
		t.Fatalf("change report differs from cold score:\n%s\nvs\n%s", got, want)
	}
	cresp, cdata := postJSON(t, ts.URL+"/v1/compare", api.CompareRequest{Old: seedTree, New: changed})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("compare: status %d: %s", cresp.StatusCode, cdata)
	}
	var coldCmp api.CompareResponse
	if err := json.Unmarshal(cdata, &coldCmp); err != nil {
		t.Fatal(err)
	}
	if got, want := canon(t, out.Comparison), canon(t, coldCmp.Comparison); got != want {
		t.Fatalf("change comparison differs from cold compare:\n%s\nvs\n%s", got, want)
	}
	aresp, adata := postJSON(t, ts.URL+"/v1/analyze", api.AnalyzeRequest{Tree: final})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", aresp.StatusCode, adata)
	}
	var cold api.AnalyzeResponse
	if err := json.Unmarshal(adata, &cold); err != nil {
		t.Fatal(err)
	}
	assertFeatureParity(t, cold.Features, s.sessions.acquire("repo-a").Features())
}

// TestDeltaStaleSessionReturns409 covers both stale paths: a non-seeding
// changeset against a fresh (or evicted) session, and a changeset that
// contradicts the session's file set. The session must survive rejections
// unchanged.
func TestDeltaStaleSessionReturns409(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	// Modify before any seed: the server has no picture of this repo.
	resp, _, we := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "r", Changeset: api.Changeset{
		Modified: []api.File{{Path: "a.mc", Content: "int f(void) { return 1; }\n"}},
	}})
	if resp.StatusCode != http.StatusConflict || we.Code != api.CodeStaleSession {
		t.Fatalf("unseeded modify: status %d code %q, want 409 %q", resp.StatusCode, we.Code, api.CodeStaleSession)
	}

	// Seed, then contradict it.
	resp, _, _ = postDelta(t, ts.URL, api.DeltaRequest{RepoID: "r", Changeset: api.Changeset{Added: deltaTree(2)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}
	resp, _, we = postDelta(t, ts.URL, api.DeltaRequest{RepoID: "r", Changeset: api.Changeset{
		Added: []api.File{{Path: "src/f00.mc", Content: "int g(void) { return 2; }\n"}},
	}})
	if resp.StatusCode != http.StatusConflict || we.Code != api.CodeStaleSession {
		t.Fatalf("re-add: status %d code %q, want 409 %q", resp.StatusCode, we.Code, api.CodeStaleSession)
	}

	// The rejected changesets left the session intact: a valid follow-up
	// continues from seq 1.
	resp, out, _ := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "r", Changeset: api.Changeset{
		Modified: []api.File{{Path: "src/f00.mc", Content: miniSource(3)}},
	}})
	if resp.StatusCode != http.StatusOK || out.Seq != 2 {
		t.Fatalf("follow-up: status %d seq %d, want 200 seq 2", resp.StatusCode, out.Seq)
	}
}

// TestDeltaValidationReturns400 covers request-shape rejections that are
// the client's fault rather than divergence: missing repo_id, empty
// changesets, changesets that would empty the session.
func TestDeltaValidationReturns400(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	cases := []struct {
		name string
		req  api.DeltaRequest
	}{
		{"missing repo_id", api.DeltaRequest{Changeset: api.Changeset{Added: deltaTree(1)}}},
		{"empty changeset", api.DeltaRequest{RepoID: "v"}},
		{"all files filtered", api.DeltaRequest{RepoID: "v", Changeset: api.Changeset{
			Added: []api.File{{Path: "README.nope", Content: "x"}, {Path: ".hidden.mc", Content: "y"}},
		}}},
	}
	for _, tc := range cases {
		resp, _, we := postDelta(t, ts.URL, tc.req)
		if resp.StatusCode != http.StatusBadRequest || we.Code != api.CodeBadRequest {
			t.Fatalf("%s: status %d code %q, want 400 bad_request", tc.name, resp.StatusCode, we.Code)
		}
	}

	// Emptying the session is rejected and the session survives.
	if resp, _, _ := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "v", Changeset: api.Changeset{Added: deltaTree(1)}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}
	resp, _, we := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "v", Changeset: api.Changeset{Removed: []string{"src/f00.mc"}}})
	if resp.StatusCode != http.StatusBadRequest || we.Code != api.CodeBadRequest {
		t.Fatalf("would-empty: status %d code %q", resp.StatusCode, we.Code)
	}
	resp, out, _ := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "v", Changeset: api.Changeset{
		Modified: []api.File{{Path: "src/f00.mc", Content: miniSource(5)}},
	}})
	if resp.StatusCode != http.StatusOK || out.Seq != 2 {
		t.Fatalf("after rejections: status %d seq %d", resp.StatusCode, out.Seq)
	}
}

// TestDeltaConcurrentApplyOneRepo hammers one repo's session from many
// goroutines, each modifying its own file. Applies serialize inside the
// session; every request must succeed, seqs must be distinct, and the
// final state must match a cold analysis of the final tree bit for bit.
func TestDeltaConcurrentApplyOneRepo(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	const n = 8
	s, ts := newTestServer(t, reg, Config{Workers: 4, QueueDepth: 2 * n})

	if resp, _, _ := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "hot", Changeset: api.Changeset{Added: deltaTree(n)}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}

	seqs := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out, we := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "hot", Changeset: api.Changeset{
				Modified: []api.File{{Path: fmt.Sprintf("src/f%02d.mc", i), Content: miniSource(100 + i)}},
			}})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("worker %d: status %d (%s)", i, resp.StatusCode, we.Error)
				return
			}
			seqs[i] = out.Seq
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := map[uint64]bool{}
	for i, q := range seqs {
		if q < 2 || q > n+1 || seen[q] {
			t.Fatalf("worker %d: seq %d out of range or duplicated (%v)", i, q, seqs)
		}
		seen[q] = true
	}

	final := api.Tree{Name: "hot", Files: make([]api.File, n)}
	for i := range final.Files {
		final.Files[i] = api.File{Path: fmt.Sprintf("src/f%02d.mc", i), Content: miniSource(100 + i)}
	}
	aresp, adata := postJSON(t, ts.URL+"/v1/analyze", api.AnalyzeRequest{Tree: final})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", aresp.StatusCode, adata)
	}
	var cold api.AnalyzeResponse
	if err := json.Unmarshal(adata, &cold); err != nil {
		t.Fatal(err)
	}
	assertFeatureParity(t, cold.Features, s.sessions.acquire("hot").Features())
}

// TestDeltaEvictionUnderLoad seeds more repos than the registry holds and
// asserts the bound: live sessions never exceed MaxSessions, evictions are
// counted, and an evicted repo answers stale on its next non-seeding
// changeset.
func TestDeltaEvictionUnderLoad(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	const cap = 3
	s, ts := newTestServer(t, reg, Config{Workers: 4, QueueDepth: 32, MaxSessions: cap})

	const repos = 10
	for i := 0; i < repos; i++ {
		id := fmt.Sprintf("repo-%02d", i)
		resp, _, _ := postDelta(t, ts.URL, api.DeltaRequest{RepoID: id, Changeset: api.Changeset{Added: deltaTree(1)}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %s: status %d", id, resp.StatusCode)
		}
		if active, _ := s.sessions.stats(); active > cap {
			t.Fatalf("after %s: %d live sessions, cap %d", id, active, cap)
		}
	}
	active, evicted := s.sessions.stats()
	if active != cap || evicted != repos-cap {
		t.Fatalf("registry state: %d active (want %d), %d evicted (want %d)", active, evicted, cap, repos-cap)
	}

	// repo-00 was evicted long ago; its session is gone, so modifying is stale.
	resp, _, we := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "repo-00", Changeset: api.Changeset{
		Modified: []api.File{{Path: "src/f00.mc", Content: miniSource(1)}},
	}})
	if resp.StatusCode != http.StatusConflict || we.Code != api.CodeStaleSession {
		t.Fatalf("evicted repo: status %d code %q, want 409 stale_session", resp.StatusCode, we.Code)
	}

	// The most recent repo is still live and usable.
	resp, out, _ := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "repo-09", Changeset: api.Changeset{
		Modified: []api.File{{Path: "src/f00.mc", Content: miniSource(42)}},
	}})
	if resp.StatusCode != http.StatusOK || out.Seq != 2 {
		t.Fatalf("live repo: status %d seq %d", resp.StatusCode, out.Seq)
	}
}

// TestSessionPoolTTLExpiry drives the pool's clock directly: a session
// idle past the TTL is swept and replaced by a fresh one.
func TestSessionPoolTTLExpiry(t *testing.T) {
	p := newSessionPool(8, time.Minute, core.ExtractConfig{Jobs: 1})
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	a := p.acquire("a")
	now = now.Add(30 * time.Second)
	if p.acquire("a") != a {
		t.Fatal("session replaced before its TTL")
	}
	// The touch above reset recency; expiry counts from last use.
	now = now.Add(59 * time.Second)
	if p.acquire("a") != a {
		t.Fatal("session expired before idle TTL elapsed")
	}
	now = now.Add(61 * time.Second)
	if p.acquire("a") == a {
		t.Fatal("idle session survived past its TTL")
	}
	if _, evicted := p.stats(); evicted != 1 {
		t.Fatalf("evictions = %d, want 1", evicted)
	}
}

// TestDeltaQueueOverflowReturns429 asserts the delta endpoint sits behind
// the same admission discipline as every analyzing endpoint: with the only
// slot held and no waiting room, a delta is shed with 429 before any
// session work happens.
func TestDeltaQueueOverflowReturns429(t *testing.T) {
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

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/delta", api.DeltaRequest{RepoID: "q", Changeset: api.Changeset{Added: deltaTree(1)}})
		first <- resp.StatusCode
	}()
	<-acquired

	resp, _, we := postDelta(t, ts.URL, api.DeltaRequest{RepoID: "q2", Changeset: api.Changeset{Added: deltaTree(1)}})
	if resp.StatusCode != http.StatusTooManyRequests || we.Code != api.CodeQueueFull {
		t.Fatalf("overflow: status %d code %q, want 429 queue_full", resp.StatusCode, we.Code)
	}
	if active, _ := s.sessions.stats(); active != 0 {
		t.Fatalf("shed request created a session: %d active", active)
	}

	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held request: status %d", code)
	}
}
