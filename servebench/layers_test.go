package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

func summary(phases map[string]float64) *trace.Summary {
	s := &trace.Summary{}
	for name, sec := range phases {
		s.Phases = append(s.Phases, trace.PhaseTotal{Phase: name, Seconds: sec, Count: 1})
	}
	return s
}

func TestAttributeSelfTimes(t *testing.T) {
	rows := map[string]float64{}
	err := attribute(rows, 12, summary(map[string]float64{
		"request": 10, "wait": 1, "extract": 7, "base": 2, "lint": 3,
		"file": 1.5, "cache": 0.5, "score": 0.5,
	}), "server.unattributed")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"server.unattributed": 2, "server.request_self": 1.5, "server.wait": 1,
		"core.extract_self": 0.5, "metrics.base": 2, "lint.lint": 3,
		"core.file_self": 1, "featcache.lookup": 0.5, "ml.score": 0.5,
	}
	sum := 0.0
	for l, v := range rows {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-12) > 1e-9 {
		t.Errorf("rows sum to %v, want the round trip 12", sum)
	}
}

func TestAttributeFileUnderApply(t *testing.T) {
	rows := map[string]float64{}
	if err := attribute(rows, 3, summary(map[string]float64{
		"request": 2, "wait": 0.1, "apply": 1.5, "file": 1, "cache": 0.2, "score": 0.3,
	}), "server.unattributed"); err != nil {
		t.Fatal(err)
	}
	if got := rows["core.apply_self"]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("core.apply_self = %v, want 0.5", got)
	}
}

func TestAttributeRejectsUnknownPhase(t *testing.T) {
	err := attribute(map[string]float64{}, 1, summary(map[string]float64{"request": 1, "decode": 0.2}), "server.unattributed")
	if err == nil || !strings.Contains(err.Error(), `"decode"`) {
		t.Fatalf("unknown phase: got %v, want an error naming it", err)
	}
}

func TestEveryPhaseChargesAListedLayer(t *testing.T) {
	listed := map[string]bool{}
	for _, l := range layers {
		listed[l] = true
	}
	for name, ph := range phases {
		if !listed[ph.layer] {
			t.Errorf("phase %q charges unlisted layer %q", name, ph.layer)
		}
		for _, p := range ph.parents {
			if _, ok := phases[p]; !ok {
				t.Errorf("phase %q names unknown parent %q", name, p)
			}
		}
	}
}
