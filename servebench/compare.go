package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the first set's median by which the second may be worse; the
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workSpec   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// comparison is one (workload, metric) across the two sets of runs.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64
	verdict                string // agree, worse, better, unbounded, missing
}

// compareSets pairs every (workload, metric) the runs report. Medians
// agree when the second differs from the first by at most the declared
// bound; beyond it the verdict says in which direction.
func compareSets(spec *benchSpec, a, b []*result) []comparison {
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[m.Name] = m
	}
	type key struct{ workload, metric string }
	values := map[key]*comparison{}
	add := func(rs []*result, second bool) {
		for _, r := range rs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				c := values[k]
				if c == nil {
					c = &comparison{workload: r.Workload, metric: name, unit: m.Unit}
					values[k] = c
				}
				if second {
					c.b = append(c.b, m.Value)
				} else {
					c.a = append(c.a, m.Value)
				}
			}
		}
	}
	add(a, false)
	add(b, true)
	var out []comparison
	for _, c := range values {
		ms := specs[c.metric]
		switch {
		case len(c.a) == 0 || len(c.b) == 0:
			c.verdict = "missing"
		case ms.Bound == 0:
			c.verdict = "unbounded"
		default:
			ma, mb := median(c.a), median(c.b)
			change := (mb - ma) / ma
			if ms.Better == "higher" {
				change = -change
			}
			switch {
			case change > ms.Bound:
				c.verdict = "worse"
			case change < -ms.Bound:
				c.verdict = "better"
			default:
				c.verdict = "agree"
			}
		}
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].workload != out[j].workload {
			return out[i].workload < out[j].workload
		}
		return out[i].metric < out[j].metric
	})
	return out
}

// runCompare reads the report files before and after "--" and prints,
// per (workload, metric), each set's median and interquartile range and
// whether the medians agree within the bound. It fails if any is worse.
func runCompare(w io.Writer, specPath string, args []string) error {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split <= 0 || split == len(args)-1 {
		return errors.New("usage: -compare A.json... -- B.json...")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readReports(args[:split])
	if err != nil {
		return err
	}
	b, err := readReports(args[split+1:])
	if err != nil {
		return err
	}
	worse := 0
	for _, c := range compareSets(spec, a, b) {
		fmt.Fprintf(w, "%s %s %s  A %.6g [iqr %.3g, n=%d]  B %.6g [iqr %.3g, n=%d]  %s\n",
			c.workload, c.metric, c.unit, median(c.a), iqr(c.a), len(c.a), median(c.b), iqr(c.b), len(c.b), c.verdict)
		if c.verdict == "worse" {
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the first set by more than their bound", worse)
	}
	return nil
}

func readReports(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rs...)
	}
	return out, nil
}
