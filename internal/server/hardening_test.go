package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/pkg/api"
)

// TestOversizedBodyReturns413 posts a tree larger than the configured body
// cap and expects the typed 413 instead of a hung read or a generic 400.
func TestOversizedBodyReturns413(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 1, MaxBodyBytes: 4 << 10})

	big := api.Tree{Name: "big", Files: []api.File{
		{Path: "main.mc", Content: "int main(void) { return 0; } // " + strings.Repeat("x", 8<<10)},
	}}
	resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	var we api.Error
	if err := json.Unmarshal(data, &we); err != nil || we.Code != api.CodeBodyTooLarge {
		t.Fatalf("envelope = %s (err %v)", data, err)
	}

	// A body under the cap still goes through on the same server.
	resp, data = postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after 413: status %d: %s", resp.StatusCode, data)
	}
}

// TestTraceFlagJoinsSummary is the opt-in contract: a request with
// trace=true gets a span summary on its diagnostics, and one without stays
// byte-free of any "trace" key.
func TestTraceFlagJoinsSummary(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced: status %d: %s", resp.StatusCode, data)
	}
	if strings.Contains(string(data), `"trace"`) {
		t.Fatal("untraced response carries a trace key")
	}

	resp, data = postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(4), Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced: status %d: %s", resp.StatusCode, data)
	}
	var sr api.ScoreResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Diagnostics == nil || sr.Diagnostics.Trace == nil {
		t.Fatalf("traced response missing span summary: %s", data)
	}
	sum := sr.Diagnostics.Trace
	if sum.WallSeconds <= 0 || sum.Spans < 3 {
		t.Fatalf("summary = %+v", sum)
	}
	phases := map[string]bool{}
	for _, p := range sum.Phases {
		phases[p.Phase] = true
	}
	for _, want := range []string{"request", "score", "extract", "file"} {
		if !phases[want] {
			t.Errorf("summary missing phase %q (have %v)", want, sum.Phases)
		}
	}

	// Compare joins the summary onto the new version's diagnostics.
	resp, data = postJSON(t, ts.URL+"/v1/compare", api.CompareRequest{Old: wireTree(1), New: wireTree(2), Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare traced: status %d: %s", resp.StatusCode, data)
	}
	var cr api.CompareResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.NewDiagnostics == nil || cr.NewDiagnostics.Trace == nil {
		t.Fatal("compare traced response missing span summary on new diagnostics")
	}
	if cr.OldDiagnostics != nil && cr.OldDiagnostics.Trace != nil {
		t.Fatal("compare summary duplicated onto old diagnostics")
	}
}

// TestPhaseMetricsGrow asserts the per-phase busy counters appear in the
// exposition after traffic, traced or not — the daemon records phases for
// every admitted request.
func TestPhaseMetricsGrow(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	_, ts := newTestServer(t, reg, Config{Workers: 2})

	resp, data := postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(5)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	text := getMetrics(t, ts.URL)
	for _, phase := range []string{"request", "score", "extract", "file"} {
		want := fmt.Sprintf("secmetricd_phase_seconds_total{phase=%q}", phase)
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
		want = fmt.Sprintf("secmetricd_phase_spans_total{phase=%q}", phase)
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if v, ok := sampleValue(text, `secmetricd_phase_spans_total{phase="file"}`); !ok || v < 1 {
		t.Errorf("file span count = %v (present %v), want >= 1", v, ok)
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleValue finds the sample whose name{labels} prefix matches exactly and
// parses its value.
func sampleValue(text, prefix string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, prefix+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// failingWriter is a ResponseWriter whose body writes always fail — the
// deterministic stand-in for a client that hung up after the header.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header       { return f.header }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestWriteJSONCountsFailedWrites: an encode that dies mid-body must move
// secmetricd_response_write_errors_total instead of vanishing.
func TestWriteJSONCountsFailedWrites(t *testing.T) {
	reg := NewRegistry("", nil)
	s := New(reg, Config{})
	if got := s.tel.writeErrors.Load(); got != 0 {
		t.Fatalf("fresh server has %d write errors", got)
	}
	s.writeJSON(&failingWriter{header: http.Header{}}, http.StatusOK, map[string]string{"k": "v"})
	s.writeJSON(&failingWriter{header: http.Header{}}, http.StatusOK, map[string]string{"k": "v"})
	if got := s.tel.writeErrors.Load(); got != 2 {
		t.Fatalf("write errors = %d, want 2", got)
	}
	var sb strings.Builder
	s.tel.write(&sb)
	if !strings.Contains(sb.String(), "secmetricd_response_write_errors_total 2") {
		t.Errorf("exposition missing the write-error count:\n%s", sb.String())
	}
}
