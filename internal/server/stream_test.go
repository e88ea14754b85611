package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/pkg/api"
	"repro/pkg/client"
)

// TestStatusRecorderForwardsFlush is the regression test for the wrapper
// bug that blocked streaming: instrument's statusRecorder must forward
// Flush to the underlying writer, so a mid-handler flush reaches the
// client before the handler returns. Without the forwarding, the first
// line sits in net/http's buffer until the handler completes and the
// client read below times out.
func TestStatusRecorderForwardsFlush(t *testing.T) {
	reg := NewRegistry("", nil)
	s := New(reg, Config{})

	release := make(chan struct{})
	h := s.instrument("flushy", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "first")
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("instrumented writer lost http.Flusher")
			return
		}
		f.Flush()
		<-release
		fmt.Fprintln(w, "second")
	})
	ts := httptest.NewServer(h)
	// Cleanups run last-registered-first: the handler must be released
	// before ts.Close can wait out the in-flight request.
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadString('\n')
		if err != nil {
			lines <- "read error: " + err.Error()
			return
		}
		lines <- line
	}()
	select {
	case got := <-lines:
		if got != "first\n" {
			t.Fatalf("first flushed line = %q", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flushed line never reached the client while the handler was still running")
	}
}

// streamRecords posts one request to a streaming endpoint and returns the
// parsed record sequence.
func streamRecords(t *testing.T, url string, body any) []api.StreamRecord {
	t.Helper()
	resp, data := postJSON(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var recs []api.StreamRecord
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var rec api.StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestAnalyzeStreamMatchesBatch: the stream's summary record carries
// exactly the batch /v1/analyze response, and the file records cover
// every tree file exactly once.
func TestAnalyzeStreamMatchesBatch(t *testing.T) {
	reg := NewRegistry("", nil)
	_, ts := newTestServer(t, reg, Config{Workers: 4})

	wt := wireTree(410)
	req := api.AnalyzeRequest{Tree: wt}

	// Warm the cache so the batch and stream runs see identical per-file
	// statuses (all cache hits), then take the batch answer.
	postJSON(t, ts.URL+"/v1/analyze", req)
	_, batchRaw := postJSON(t, ts.URL+"/v1/analyze", req)
	var batch api.AnalyzeResponse
	if err := json.Unmarshal(batchRaw, &batch); err != nil {
		t.Fatal(err)
	}

	recs := streamRecords(t, ts.URL+"/v1/analyze/stream", req)
	var files []api.StreamFile
	var summary *api.AnalyzeResponse
	for i, rec := range recs {
		switch rec.Type {
		case api.StreamTypeFile:
			files = append(files, *rec.File)
		case api.StreamTypeSummary:
			if i != len(recs)-1 {
				t.Errorf("summary is record %d of %d, want last", i, len(recs))
			}
			summary = rec.Analyze
		case api.StreamTypeHeartbeat:
		default:
			t.Fatalf("unexpected record type %q", rec.Type)
		}
	}
	if summary == nil {
		t.Fatal("stream carried no summary record")
	}
	if got, want := canon(t, summary), canon(t, &batch); got != want {
		t.Errorf("summary differs from the batch response:\n%s\nvs\n%s", got, want)
	}

	wantPaths := make([]string, len(wt.Files))
	for i, f := range wt.Files {
		wantPaths[i] = f.Path
	}
	sort.Strings(wantPaths)
	gotPaths := make([]string, len(files))
	for i, f := range files {
		gotPaths[i] = f.Path
		if f.Status != string(core.StatusCacheHit) {
			t.Errorf("file %s status %q on a warm cache", f.Path, f.Status)
		}
	}
	sort.Strings(gotPaths)
	if strings.Join(gotPaths, ",") != strings.Join(wantPaths, ",") {
		t.Errorf("file records %v, want exactly %v", gotPaths, wantPaths)
	}
}

// TestFindingsStreamMatchesBatch: per-file findings records concatenated
// in tree (path-sorted) order reproduce the batch report, and the summary
// carries it verbatim.
func TestFindingsStreamMatchesBatch(t *testing.T) {
	reg := NewRegistry("", nil)
	_, ts := newTestServer(t, reg, Config{Workers: 4})

	wt := wireTree(411)
	req := api.FindingsRequest{Tree: wt, MinSeverity: "low"}
	_, batchRaw := postJSON(t, ts.URL+"/v1/findings", req)
	var batch api.FindingsResponse
	if err := json.Unmarshal(batchRaw, &batch); err != nil {
		t.Fatal(err)
	}

	recs := streamRecords(t, ts.URL+"/v1/findings/stream", req)
	byPath := map[string]api.StreamFile{}
	var summary *api.FindingsResponse
	for _, rec := range recs {
		switch rec.Type {
		case api.StreamTypeFile:
			byPath[rec.File.Path] = *rec.File
		case api.StreamTypeSummary:
			summary = rec.Findings
		}
	}
	if summary == nil {
		t.Fatal("stream carried no summary record")
	}
	if got, want := canon(t, summary), canon(t, &batch); got != want {
		t.Errorf("summary differs from the batch response:\n%s\nvs\n%s", got, want)
	}

	// Concatenate the records in tree order and compare to the batch
	// findings list.
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var concat []secFinding
	for _, p := range paths {
		for _, f := range byPath[p].Findings {
			concat = append(concat, secFinding{f.Rule, f.File, f.Line, f.Message})
		}
	}
	var want []secFinding
	if batch.Report != nil {
		for _, f := range batch.Report.Findings {
			want = append(want, secFinding{f.Rule, f.File, f.Line, f.Message})
		}
	}
	if canon(t, concat) != canon(t, want) {
		t.Errorf("concatenated records differ from batch findings:\n%s\nvs\n%s", canon(t, concat), canon(t, want))
	}
	if len(want) == 0 {
		t.Fatal("test tree produced no findings; the parity check is vacuous")
	}
}

type secFinding struct {
	Rule    string
	File    string
	Line    int
	Message string
}

// lockedRecorder guards an httptest recorder so the test can read the
// body while the heartbeat goroutine is still writing to it.
type lockedRecorder struct {
	mu  sync.Mutex
	rec *httptest.ResponseRecorder
}

func (l *lockedRecorder) Header() http.Header { return l.rec.Header() }
func (l *lockedRecorder) WriteHeader(c int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec.WriteHeader(c)
}
func (l *lockedRecorder) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec.Write(b)
}
func (l *lockedRecorder) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec.Flush()
}
func (l *lockedRecorder) body() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec.Body.String()
}

// TestStreamHeartbeats: an idle stream emits heartbeat records at the
// configured interval, and they stop once the stream ends.
func TestStreamHeartbeats(t *testing.T) {
	reg := NewRegistry("", nil)
	s := New(reg, Config{})
	s.heartbeat = 2 * time.Millisecond

	lr := &lockedRecorder{rec: httptest.NewRecorder()}
	sw := s.startStream(lr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if strings.Count(lr.body(), api.StreamTypeHeartbeat) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeats on an idle stream")
		}
		time.Sleep(time.Millisecond)
	}
	sw.end()
	if !lr.rec.Flushed {
		t.Error("heartbeats were never flushed")
	}
	for _, line := range strings.Split(strings.TrimSpace(lr.body()), "\n") {
		var r api.StreamRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad heartbeat line %q: %v", line, err)
		}
		if r.Type != api.StreamTypeHeartbeat {
			t.Fatalf("unexpected record %q on an idle stream", r.Type)
		}
	}
}

// TestClientStream drives both streaming endpoints through the typed
// client: per-file callbacks fire, the summary equals the batch call, and
// pre-stream rejections surface as ordinary APIErrors.
func TestClientStream(t *testing.T) {
	reg := NewRegistry("", nil)
	_, ts := newTestServer(t, reg, Config{Workers: 4})
	c := client.New(ts.URL)

	wt := wireTree(412)
	batch, err := c.Analyze(context.Background(), api.AnalyzeRequest{Tree: wt})
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	sum, err := c.AnalyzeStream(context.Background(), api.AnalyzeRequest{Tree: wt}, func(f api.StreamFile) {
		seen = append(seen, f.Path)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(wt.Files) {
		t.Errorf("onFile fired %d times for %d files", len(seen), len(wt.Files))
	}
	// Second batch call is warm like the stream run was; diagnostics agree.
	batch2, err := c.Analyze(context.Background(), api.AnalyzeRequest{Tree: wt})
	if err != nil {
		t.Fatal(err)
	}
	_ = batch
	if canon(t, sum) != canon(t, batch2) {
		t.Errorf("client stream summary differs from batch:\n%s\nvs\n%s", canon(t, sum), canon(t, batch2))
	}

	fb, err := c.Findings(context.Background(), api.FindingsRequest{Tree: wt})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := c.FindingsStream(context.Background(), api.FindingsRequest{Tree: wt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if canon(t, fs) != canon(t, fb) {
		t.Errorf("findings stream summary differs from batch")
	}

	// A malformed tree is rejected before the stream begins: plain 400.
	_, err = c.AnalyzeStream(context.Background(), api.AnalyzeRequest{Tree: api.Tree{Name: "x"}}, nil)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty tree error = %v, want a 400 APIError", err)
	}
}
