package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store/findex"
	"repro/pkg/api"
)

func openHistory(t *testing.T) *findex.Store {
	t.Helper()
	s, err := findex.Open(filepath.Join(t.TempDir(), "findings.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRecordHonorsContext: a recording whose request context is already
// canceled runs no findings pass to completion, appends nothing and counts
// one history error; the same recording under a live context lands.
func TestRecordHonorsContext(t *testing.T) {
	hist := openHistory(t)
	s := New(NewRegistry("", nil), Config{History: hist})
	tree := libTree(t, wireTree(1))
	countRuns := func() int {
		t.Helper()
		runs, _, err := hist.QueryString("", findex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return len(runs)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s.record(canceled, "score", tree, 42, true)
	if n, errs := countRuns(), s.historyErrors.Load(); n != 0 || errs != 1 {
		t.Fatalf("canceled recording: %d runs and %d history errors, want 0 and 1", n, errs)
	}

	s.record(context.Background(), "score", tree, 42, true)
	if n, ok := countRuns(), s.historyRuns.Load(); n != 1 || ok != 1 {
		t.Fatalf("live recording: %d runs stored and %d counted, want 1 and 1", n, ok)
	}
}

// TestQueryWithoutHistory pins the no-db contract: a well-formed query is
// answered 404 no_history, a malformed one 400, and so is a request
// carrying the retired full_scan field — and none consumes a worker slot.
func TestQueryWithoutHistory(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 1})

	resp, data := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Query: "cwe121 > 0"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-history query: status %d: %s", resp.StatusCode, data)
	}
	var we api.Error
	if err := json.Unmarshal(data, &we); err != nil || we.Code != api.CodeNoHistory {
		t.Fatalf("no-history code = %q (%v), want %q", we.Code, err, api.CodeNoHistory)
	}

	resp, data = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Query: "bogus > 1"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d: %s", resp.StatusCode, data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/query", map[string]any{"query": "cwe121 > 0", "full_scan": true})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "full_scan") {
		t.Fatalf("full_scan request: status %d: %s", resp.StatusCode, data)
	}
}

// TestHistoryRecordingAndQuery drives score, compare, and rank against a
// -db-backed server and checks every request landed in the history, that
// /v1/query answers what a forced full scan of its store finds, and
// that the metrics exposition reports the recording counters.
func TestHistoryRecordingAndQuery(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	hist := openHistory(t)
	_, ts := newTestServer(t, reg, Config{Workers: 2, History: hist})

	if resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(1)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/compare", api.CompareRequest{Old: wireTree(1), New: wireTree(2)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts.URL+"/v1/rank", api.RankRequest{Tree: wireTree(3)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: status %d: %s", resp.StatusCode, data)
	}

	query := func(req api.QueryRequest) api.QueryResponse {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", req.Query, resp.StatusCode, data)
		}
		var out api.QueryResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("query %q: decode: %v", req.Query, err)
		}
		return out
	}

	all := query(api.QueryRequest{})
	if len(all.Runs) != 3 {
		t.Fatalf("recorded %d runs, want 3: %+v", len(all.Runs), all.Runs)
	}
	bySource := map[string]int{}
	for _, r := range all.Runs {
		bySource[r.Source]++
		if r.Seq == 0 || r.Time == 0 {
			t.Errorf("run %s/%d missing seq or time: %+v", r.Repo, r.Seq, r)
		}
	}
	if bySource["score"] != 1 || bySource["compare"] != 1 || bySource["rank"] != 1 {
		t.Fatalf("sources off: %v", bySource)
	}
	for _, r := range all.Runs {
		wantScore := r.Source != "rank"
		if r.HasScore != wantScore {
			t.Errorf("run from %s: HasScore=%v, want %v", r.Source, r.HasScore, wantScore)
		}
	}

	// The compare run records the NEW tree under its name.
	named := query(api.QueryRequest{Query: `repo = "tree-2"`})
	if len(named.Runs) != 1 || named.Runs[0].Source != "compare" {
		t.Fatalf("tree-2 runs: %+v", named.Runs)
	}

	// The wire answer equals a forced full scan of the same store;
	// miniSource trips the strcpy rule, so a CWE predicate exercises a
	// real index.
	src := "cwe120 > 0 OR severity >= info"
	planned := query(api.QueryRequest{Query: src})
	full, ex, err := hist.QueryString(src, findex.Options{ForceFullScan: true})
	if err != nil || !ex.FullScan {
		t.Fatalf("forced full scan: %+v, %v", ex, err)
	}
	pj, _ := json.Marshal(planned.Runs)
	fj, _ := json.Marshal(full)
	if string(pj) != string(fj) {
		t.Fatalf("wire parity violation:\n planned: %s\n full:    %s", pj, fj)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"secmetricd_history_runs_total 3",
		"secmetricd_history_errors_total 0",
		"secmetricd_featcache_corrupt_total 0",
		"secmetricd_store_pages",
		"secmetricd_store_commits_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
