package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/findings"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/store/findex"
	"repro/pkg/api"
)

// wantFindings is the uncached, sequential findings report of a tree:
// AnalyzeFile per file, the severity filter, each kept finding named by its
// file's path, then the merge.
func wantFindings(tree *metrics.Tree, minSev findings.Severity) *findings.Report {
	perFile := make([][]findings.Finding, len(tree.Files))
	for i, f := range tree.Files {
		ast, prog, _ := ir.Parse(f.Content)
		all := findings.AnalyzeFile(f.Language, f.Content, ast, prog).Findings
		perFile[i] = (&findings.Report{Findings: all}).MinSeverity(minSev).Findings
		for j := range perFile[i] {
			perFile[i][j].File = f.Path
		}
	}
	return findings.Merge(perFile)
}

// TestRecordedRunMatchesReference: at -jobs 1 and 8, the run a scored
// request records carries the reference findings, byte for byte, when its
// findings were analyzed (cold) and when they came from the cache (warm);
// and recording the unchanged tree the second time adds zero feature-cache
// misses, extraction and findings alike.
func TestRecordedRunMatchesReference(t *testing.T) {
	mA, _ := getModels(t)
	wt := wireTree(7)
	want := wantFindings(libTree(t, wt), findings.SevInfo).Findings
	for _, jobs := range []int{1, 8} {
		reg := NewRegistry("", nil)
		reg.Register("default", mA)
		hist := openHistory(t)
		s, ts := newTestServer(t, reg, Config{Workers: 1, AnalyzeJobs: jobs, History: hist})
		var misses [2]uint64
		for pass := range misses {
			_, before := s.cache.Stats()
			if resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wt}); resp.StatusCode != http.StatusOK {
				t.Fatalf("jobs=%d pass %d: status %d: %s", jobs, pass, resp.StatusCode, data)
			}
			_, after := s.cache.Stats()
			misses[pass] = after - before
		}
		if misses[0] == 0 || misses[1] != 0 {
			t.Fatalf("jobs=%d: cache misses per recorded score = %v, want some and then none", jobs, misses)
		}
		runs, _, err := hist.QueryString("", findex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 2 {
			t.Fatalf("jobs=%d: %d runs recorded, want 2", jobs, len(runs))
		}
		for _, run := range runs {
			if got, w := canon(t, run.Findings), canon(t, want); got != w {
				t.Fatalf("jobs=%d: run %d findings differ from the reference:\n%s\nvs\n%s", jobs, run.Seq, got, w)
			}
		}
	}
}

// TestFindingsBatchStreamColdWarm: at -jobs 1 and 8, /v1/findings and its
// stream answer the reference report whichever of them runs cold and which
// warm; the stream's file records say ok when analyzed and cache-hit when
// read from the cache, and concatenated in path order they are the report.
func TestFindingsBatchStreamColdWarm(t *testing.T) {
	wt := wireTree(9)
	req := api.FindingsRequest{Tree: wt, MinSeverity: "low"}
	want := canon(t, &api.FindingsResponse{Report: wantFindings(libTree(t, wt), findings.SevLow)})
	batch := func(url string) string {
		t.Helper()
		resp, data := postJSON(t, url+"/v1/findings", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
		}
		var out api.FindingsResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return canon(t, &out)
	}
	stream := func(url string, status core.FileStatus) string {
		t.Helper()
		var summary *api.FindingsResponse
		byPath := map[string][]findings.Finding{}
		for _, rec := range streamRecords(t, url+"/v1/findings/stream", req) {
			switch rec.Type {
			case api.StreamTypeFile:
				if rec.File.Status != string(status) {
					t.Fatalf("stream record %s says %q, want %q", rec.File.Path, rec.File.Status, status)
				}
				byPath[rec.File.Path] = rec.File.Findings
			case api.StreamTypeSummary:
				summary = rec.Findings
			}
		}
		if summary == nil || len(byPath) != len(wt.Files) {
			t.Fatalf("stream: summary %v and %d file records for %d files", summary, len(byPath), len(wt.Files))
		}
		paths := make([]string, 0, len(byPath))
		for p := range byPath {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		concat := &findings.Report{}
		for _, p := range paths {
			concat.Findings = append(concat.Findings, byPath[p]...)
		}
		if got, w := canon(t, concat), canon(t, summary.Report); got != w {
			t.Fatalf("concatenated records differ from the summary:\n%s\nvs\n%s", got, w)
		}
		return canon(t, summary)
	}
	for _, jobs := range []int{1, 8} {
		_, ts := newTestServer(t, NewRegistry("", nil), Config{Workers: 1, AnalyzeJobs: jobs})
		if got := batch(ts.URL); got != want {
			t.Fatalf("jobs=%d cold batch:\n%s\nvs\n%s", jobs, got, want)
		}
		if got := stream(ts.URL, core.StatusCacheHit); got != want {
			t.Fatalf("jobs=%d warm stream:\n%s\nvs\n%s", jobs, got, want)
		}
		_, ts = newTestServer(t, NewRegistry("", nil), Config{Workers: 1, AnalyzeJobs: jobs})
		if got := stream(ts.URL, core.StatusOK); got != want {
			t.Fatalf("jobs=%d cold stream:\n%s\nvs\n%s", jobs, got, want)
		}
		if got := batch(ts.URL); got != want {
			t.Fatalf("jobs=%d warm batch:\n%s\nvs\n%s", jobs, got, want)
		}
	}
}

// TestDegradedFindingsFailTheRequest: a file whose findings analysis
// panics or outlives -file-timeout is contained to that file. Its stream
// record names the status, and the stream ends in an error record, not a
// summary; the batch route answers an error, not a partial report; the
// recorder appends nothing and counts one history error while the score
// itself still succeeds; and, the degraded result never having been
// cached, the file is analyzed afresh once the fault is gone.
func TestDegradedFindingsFailTheRequest(t *testing.T) {
	mA, _ := getModels(t)
	wt := wireTree(5)
	victim := wt.Files[1].Path
	for _, tc := range []struct {
		status  core.FileStatus
		timeout time.Duration
	}{{core.StatusPanic, 0}, {core.StatusTimeout, 500 * time.Millisecond}} {
		release, stalled := make(chan struct{}), make(chan struct{}, 3)
		restore := core.SetFindingsTestHook(func(f metrics.File) {
			if f.Path != victim {
				return
			}
			if tc.timeout == 0 {
				panic("injected findings bug")
			}
			<-release
			stalled <- struct{}{}
		})
		reg := NewRegistry("", nil)
		reg.Register("default", mA)
		hist := openHistory(t)
		_, ts := newTestServer(t, reg, Config{Workers: 1, FileTimeout: tc.timeout, History: hist})

		resp, data := postJSON(t, ts.URL+"/v1/findings", api.FindingsRequest{Tree: wt})
		var we api.Error
		if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(data, &we) != nil ||
			we.Code != api.CodeInternal || !strings.Contains(we.Error, victim) {
			t.Fatalf("%s batch: status %d: %s; want a 500 naming %s", tc.status, resp.StatusCode, data, victim)
		}

		recs := streamRecords(t, ts.URL+"/v1/findings/stream", api.FindingsRequest{Tree: wt})
		last := recs[len(recs)-1]
		if last.Type != api.StreamTypeError || !strings.Contains(last.Err.Error, victim) {
			t.Fatalf("%s stream ends with %+v, want an error record naming %s", tc.status, last, victim)
		}
		seen := 0
		for _, rec := range recs {
			switch {
			case rec.Type == api.StreamTypeSummary:
				t.Fatalf("%s stream carried a summary: %+v", tc.status, rec.Findings)
			case rec.Type != api.StreamTypeFile:
			case rec.File.Path == victim:
				seen++
				if rec.File.Status != string(tc.status) || rec.File.Detail == "" || len(rec.File.Findings) != 0 {
					t.Fatalf("%s stream: victim record %+v", tc.status, *rec.File)
				}
			case rec.File.Status != string(core.StatusOK) && rec.File.Status != string(core.StatusCacheHit):
				t.Fatalf("%s stream: bystander record %+v", tc.status, *rec.File)
			}
		}
		if seen != 1 {
			t.Fatalf("%s stream: %d victim records, want 1", tc.status, seen)
		}

		if resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wt}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s score: status %d: %s", tc.status, resp.StatusCode, data)
		}
		if tc.timeout > 0 {
			// Each stalled analysis read the hook on its own goroutine; let
			// all three finish before the hook is removed.
			close(release)
			for i := 0; i < 3; i++ {
				<-stalled
			}
		}
		restore()
		metricsText := getMetrics(t, ts.URL)
		for _, want := range []string{"secmetricd_history_runs_total 0\n", "secmetricd_history_errors_total 1\n"} {
			if !strings.Contains(metricsText, want) {
				t.Fatalf("%s: metrics lack %q", tc.status, want)
			}
		}

		if resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wt}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s healed score: status %d: %s", tc.status, resp.StatusCode, data)
		}
		runs, _, err := hist.QueryString("", findex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || canon(t, runs[0].Findings) != canon(t, wantFindings(libTree(t, wt), findings.SevInfo).Findings) {
			t.Fatalf("%s: healed recording stored %d runs, want 1 carrying the reference findings", tc.status, len(runs))
		}
	}
}
