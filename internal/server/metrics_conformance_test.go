package server

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/pkg/api"
)

// TestHistogramConformance drives traffic and then audits the exposition
// against the Prometheus text-format histogram contract: buckets are
// cumulative and monotone non-decreasing in le order, the +Inf bucket
// equals _count, every observation is inside sum, and every exported family
// carries HELP and TYPE headers. The daemon records a history, so the
// store gauges are audited too.
func TestHistogramConformance(t *testing.T) {
	mA, _ := getModels(t)
	reg := NewRegistry("", nil)
	reg.Register("default", mA)
	s, ts := newTestServer(t, reg, Config{Workers: 2, History: openHistory(t)})

	// Mixed traffic: successes, a 404, two endpoints.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Tree: wireTree(i)})
	}
	postJSON(t, ts.URL+"/v1/score", api.ScoreRequest{Model: "nope", Tree: wireTree(0)})
	postJSON(t, ts.URL+"/v1/analyze", api.AnalyzeRequest{Tree: wireTree(1)})

	text := getMetrics(t, ts.URL)
	exp := parseExposition(t, text)

	// The recorded scores left B+tree pages in the store's page cache.
	if cached := exp.families["secmetricd_store_cached_pages"]; len(cached) != 1 || cached[0].value <= 0 {
		t.Errorf("secmetricd_store_cached_pages = %+v, want one positive sample", cached)
	}
	// The feature cache's memory tier holds the scored files' enrichment
	// and findings records, and its gauges read what MemStats reads.
	wantEntries, wantBytes := s.cache.MemStats()
	if wantEntries == 0 {
		t.Fatal("the scored trees left no feature-cache records in memory")
	}
	for fam, want := range map[string]float64{
		"secmetricd_featcache_mem_entries": float64(wantEntries),
		"secmetricd_featcache_mem_bytes":   float64(wantBytes),
	} {
		if got := exp.families[fam]; len(got) != 1 || got[0].value != want {
			t.Errorf("%s = %+v, want one sample of %g", fam, got, want)
		}
	}

	// Every family has headers.
	for fam := range exp.families {
		if !exp.typed[fam] {
			t.Errorf("family %s exported without # TYPE", fam)
		}
		if !exp.helped[fam] {
			t.Errorf("family %s exported without # HELP", fam)
		}
	}

	// Histogram contract per endpoint label set.
	const hist = "secmetricd_request_duration_seconds"
	endpoints := map[string]bool{}
	for _, s := range exp.families[hist+"_bucket"] {
		endpoints[s.labels["endpoint"]] = true
	}
	if len(endpoints) < 2 {
		t.Fatalf("expected buckets for >= 2 endpoints, got %v", endpoints)
	}
	for ep := range endpoints {
		var buckets []sample
		for _, s := range exp.families[hist+"_bucket"] {
			if s.labels["endpoint"] == ep {
				buckets = append(buckets, s)
			}
		}
		sort.Slice(buckets, func(i, j int) bool { return le(t, buckets[i]) < le(t, buckets[j]) })
		prev := -1.0
		for _, b := range buckets {
			if b.value < prev {
				t.Errorf("endpoint %s: bucket le=%s value %g < previous %g (not cumulative)",
					ep, b.labels["le"], b.value, prev)
			}
			prev = b.value
		}
		last := buckets[len(buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Fatalf("endpoint %s: final bucket le=%s, want +Inf", ep, last.labels["le"])
		}
		count := one(t, exp.families[hist+"_count"], ep)
		if last.value != count.value {
			t.Errorf("endpoint %s: +Inf bucket %g != count %g", ep, last.value, count.value)
		}
		sum := one(t, exp.families[hist+"_sum"], ep)
		if sum.value < 0 {
			t.Errorf("endpoint %s: negative sum %g", ep, sum.value)
		}
		if count.value > 0 && sum.value == 0 {
			// Possible only if every request took literally zero time.
			t.Errorf("endpoint %s: %g observations but zero sum", ep, count.value)
		}
	}
}

func le(t *testing.T, s sample) float64 {
	t.Helper()
	raw := s.labels["le"]
	if raw == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", raw, err)
	}
	return v
}

func one(t *testing.T, ss []sample, endpoint string) sample {
	t.Helper()
	for _, s := range ss {
		if s.labels["endpoint"] == endpoint {
			return s
		}
	}
	t.Fatalf("no sample for endpoint %q", endpoint)
	return sample{}
}

type sample struct {
	labels map[string]string
	value  float64
}

type exposition struct {
	families map[string][]sample
	typed    map[string]bool
	helped   map[string]bool
}

// parseExposition parses the subset of the Prometheus text format the
// daemon emits: HELP/TYPE comments and `name{labels} value` samples.
func parseExposition(t *testing.T, text string) *exposition {
	t.Helper()
	exp := &exposition{
		families: map[string][]sample{},
		typed:    map[string]bool{},
		helped:   map[string]bool{},
	}
	typeByFamily := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(fam)
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typeByFamily[fields[0]] = fields[1]
			continue
		}
		if fam, ok := strings.CutPrefix(line, "# HELP "); ok {
			fields := strings.Fields(fam)
			if len(fields) < 2 {
				t.Fatalf("malformed HELP line: %q", line)
			}
			exp.helped[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest := line, ""
		labels := map[string]string{}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("malformed sample: %q", line)
			}
			for _, kv := range strings.Split(line[i+1:j], ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					t.Fatalf("malformed label %q in %q", kv, line)
				}
				uq, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("unquoted label value %q in %q", v, line)
				}
				labels[k] = uq
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.SplitN(line, " ", 2)
			if len(fields) != 2 {
				t.Fatalf("malformed sample: %q", line)
			}
			name, rest = fields[0], fields[1]
		}
		value, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		exp.families[name] = append(exp.families[name], sample{labels: labels, value: value})
	}
	// Map sample names to their TYPE-declared family: histogram samples use
	// the family name plus _bucket/_sum/_count suffixes.
	for name := range exp.families {
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typeByFamily[base] == "histogram" {
				fam = base
				break
			}
		}
		if _, ok := typeByFamily[fam]; ok {
			exp.typed[name] = true
			if exp.helped[fam] {
				exp.helped[name] = true
			}
		}
	}
	return exp
}
