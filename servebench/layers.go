package main

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// phase is one span name a traced /v1/score or /v1/delta response reports
// (the phase taxonomy of DESIGN.md §7), with the phases that can enclose it
// and the layer its self time is charged to.
type phase struct {
	parents []string // in preference order; nil for the request root
	layer   string
}

// phases is the nesting table. A phase's self time is its total minus the
// totals of the phases it encloses; "file" sits under "extract" on
// /v1/score and under "apply" on /v1/delta.
var phases = map[string]phase{
	"request":   {nil, "server.request_self"},
	"wait":      {[]string{"request"}, "server.wait"},
	"extract":   {[]string{"request"}, "core.extract_self"},
	"apply":     {[]string{"request"}, "core.apply_self"},
	"score":     {[]string{"request"}, "ml.score"},
	"record":    {[]string{"request"}, "store.record"},
	"base":      {[]string{"extract"}, "metrics.base"},
	"lint":      {[]string{"extract"}, "lint.lint"},
	"file":      {[]string{"extract", "apply"}, "core.file_self"},
	"cache":     {[]string{"file"}, "featcache.lookup"},
	"deep":      {[]string{"file"}, "deep.self"},
	"findings":  {[]string{"deep"}, "deep.findings"},
	"parse":     {[]string{"deep"}, "deep.parse"},
	"taint":     {[]string{"deep"}, "deep.taint"},
	"symexec":   {[]string{"deep"}, "deep.symexec"},
	"callgraph": {[]string{"deep"}, "deep.callgraph"},
	"interp":    {[]string{"deep"}, "deep.interp"},
}

// layers are the rows a traced round trip is divided into, in report
// order. The unattributed rows hold round-trip time outside the daemon's
// request span: HTTP, JSON decode and encode, tree conversion, and on the
// fleet the router hop. findex.query holds whole /v1/query round trips,
// which the daemon does not trace.
var layers = []string{
	"server.unattributed", "router.unattributed",
	"server.request_self", "server.wait",
	"core.extract_self", "core.apply_self", "core.file_self",
	"metrics.base", "lint.lint", "featcache.lookup",
	"deep.self", "deep.findings", "deep.parse", "deep.taint", "deep.symexec", "deep.callgraph", "deep.interp",
	"ml.score", "store.record", "findex.query",
}

// attribute charges one round trip of rtt seconds to rows by the self
// times of its trace summary.
func attribute(rows map[string]float64, rtt float64, sum *trace.Summary, unattributed string) error {
	totals := map[string]float64{}
	for _, p := range sum.Phases {
		totals[p.Phase] = p.Seconds
	}
	if _, ok := totals["request"]; !ok {
		return fmt.Errorf("trace summary has no request phase")
	}
	for name, sec := range totals {
		ph, ok := phases[name]
		if !ok {
			return fmt.Errorf("trace phase %q is not in the nesting table", name)
		}
		rows[ph.layer] += sec
		if ph.parents == nil {
			continue
		}
		parent := ""
		for _, p := range ph.parents {
			if _, ok := totals[p]; ok {
				parent = p
				break
			}
		}
		if parent == "" {
			return fmt.Errorf("trace phase %q has none of its enclosing phases %v", name, ph.parents)
		}
		rows[phases[parent].layer] -= sec
	}
	rows[unattributed] += rtt - totals["request"]
	return nil
}

// layerTolerance is how far the rows may stray from the round trips they
// divide, as a share of the total: their sum from the total, any row below
// zero.
const layerTolerance = 0.02

// setLayers reports each row as milliseconds per traced operation, beside
// the mean round trip and the extract and apply totals the self times are
// cut from, and checks that the rows add up to the round trips.
func (r *result) setLayers(traced []sample) error {
	rows := map[string]float64{}
	var total, extract, apply float64
	n := 0
	for _, s := range traced {
		if s.err != nil {
			continue
		}
		rtt := s.rtt.Seconds()
		total += rtt
		n++
		switch {
		case s.kind == "query":
			rows["findex.query"] += rtt
			continue
		case r.Workload == "fleet_mixed":
			if err := attribute(rows, rtt, s.phases, "router.unattributed"); err != nil {
				return err
			}
		default:
			if err := attribute(rows, rtt, s.phases, "server.unattributed"); err != nil {
				return err
			}
		}
		for _, p := range s.phases.Phases {
			switch p.Phase {
			case "extract":
				extract += p.Seconds
			case "apply":
				apply += p.Seconds
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("no traced operation succeeded")
	}
	perOp := func(sec float64) float64 { return sec / float64(n) * 1e3 }
	r.set("client.rtt_ms", perOp(total))
	r.set("core.extract_ms", perOp(extract))
	r.set("core.apply_ms", perOp(apply))
	sum := 0.0
	var bad []string
	for _, l := range layers {
		sum += rows[l]
		r.set(l+"_ms", perOp(rows[l]))
		if rows[l] < -layerTolerance*total {
			bad = append(bad, fmt.Sprintf("%s %.3f ms", l, perOp(rows[l])))
		}
	}
	r.set("trace.attributed_ratio", sum/total)
	if len(bad) > 0 {
		return fmt.Errorf("negative self time, the nesting table is wrong: %s", strings.Join(bad, ", "))
	}
	if d := sum/total - 1; d < -layerTolerance || d > layerTolerance {
		return fmt.Errorf("layers attribute %.3f of the round-trip time, want 1±%.2f", sum/total, layerTolerance)
	}
	return nil
}
