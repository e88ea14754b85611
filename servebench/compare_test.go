package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func reportOf(workload string, values map[string][]float64, run int) *result {
	r := &result{Workload: workload, Metrics: map[string]metric{}}
	for name, vs := range values {
		r.set(name, vs[run])
	}
	return r
}

func TestCompareSets(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "throughput_rps", Unit: "ops/s", Better: "higher", Bound: 0.1},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1},
			{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
		},
		PerLayer: []metricSpec{{Name: "lint.lint_share", Unit: "ratio", Better: "lower"}},
	}
	a := map[string][]float64{
		"latency_p50_ms":  {10, 11, 9},
		"throughput_rps":  {100, 101, 99},
		"setup_s":         {1, 1, 1},
		"live_heap_mb":    {5, 5, 5},
		"lint.lint_share": {0.7, 0.7, 0.7},
	}
	b := map[string][]float64{
		"latency_p50_ms":  {11.5, 11.4, 11.6}, // +15%: worse
		"throughput_rps":  {95, 96, 94},       // -5%: agrees
		"setup_s":         {0.8, 0.8, 0.8},    // -20%: better
		"lint.lint_share": {0.5, 0.5, 0.5},
	}
	var ra, rb []*result
	for run := 0; run < 3; run++ {
		ra = append(ra, reportOf("w", a, run))
		rb = append(rb, reportOf("w", b, run))
	}
	got := map[string]string{}
	for _, c := range compareSets(spec, ra, rb) {
		got[c.metric] = c.verdict
	}
	want := map[string]string{
		"latency_p50_ms":  "worse",
		"throughput_rps":  "agree",
		"setup_s":         "better",
		"live_heap_mb":    "missing",
		"lint.lint_share": "unbounded",
	}
	for m, v := range want {
		if got[m] != v {
			t.Errorf("%s: verdict %q, want %q", m, got[m], v)
		}
	}
}

func TestRunCompareFailsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		p := filepath.Join(dir, name)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", benchSpec{EndToEnd: []metricSpec{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}})
	a := write("a.json", []*result{reportOf("w", map[string][]float64{"latency_p50_ms": {10}}, 0)})
	b := write("b.json", []*result{reportOf("w", map[string][]float64{"latency_p50_ms": {20}}, 0)})
	var out bytes.Buffer
	if err := runCompare(&out, spec, []string{a, "--", b}); err == nil {
		t.Fatal("a doubled latency compared clean")
	}
	if !strings.Contains(out.String(), "w latency_p50_ms ms  A 10 ") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("unexpected comparison output:\n%s", out.String())
	}
	if err := runCompare(&out, spec, []string{a, "--", a}); err != nil {
		t.Fatalf("a report against itself: %v", err)
	}
	if err := runCompare(&out, spec, []string{a, b}); err == nil {
		t.Fatal("missing -- separator accepted")
	}
}
