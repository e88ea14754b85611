package main

import (
	"context"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store/findex"
	"repro/pkg/api"
)

// tinyScale keeps the end-to-end tests to seconds: small trees, few
// versions, a short history, one set-up, short kernel samples.
var tinyScale = scale{
	treeFiles:     3,
	versions:      2,
	coldFiles:     1,
	stmtsPerFunc:  1,
	fileTokens:    40,
	historyRuns:   160,
	warmupOps:     2,
	setups:        1,
	kernelSamples: 2,
	kernelBudget:  time.Millisecond,
}

var (
	tinyOnce sync.Once
	tinyFx   *fixtures
	tinyErr  error
)

// tiny returns fixtures at tinyScale with a two-tree model, built once.
func tiny(t *testing.T) *fixtures {
	t.Helper()
	tinyOnce.Do(func() {
		blob, err := modelBlob(2)
		if err != nil {
			tinyErr = err
			return
		}
		tinyFx, tinyErr = newFixtures(7, tinyScale, blob, workloads)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyFx
}

func specNames(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsReportDeclaredMetrics drives every workload through a short
// untraced and a short traced window: every answer checks out, the phase
// table covers every phase the daemon reports, the layers add up to the
// round trips, and the metrics emitted are exactly those BENCHMARK.json
// declares, with its units.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	fx := tiny(t)
	ctx := context.Background()
	for _, w := range workloads {
		e2e, err := runEndToEnd(ctx, w, fx, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if e2e.Failed != 0 || e2e.Attempted == 0 {
			t.Errorf("%s untraced: %d of %d failed: %v", w.name, e2e.Failed, e2e.Attempted, e2e.Problems)
		}
		if got, want := e2e.sortedNames(), specNames(spec.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s untraced emits %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		layered, err := runPerLayer(ctx, w, fx, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !layered.Correct {
			t.Errorf("%s traced: %d of %d failed: %v", w.name, layered.Failed, layered.Attempted, layered.Problems)
		}
		if got, want := layered.sortedNames(), specNames(spec.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s traced emits %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		for _, r := range []*result{e2e, layered} {
			for n, m := range r.Metrics {
				if m.Unit != units[n] {
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.name, n, m.Unit, units[n])
				}
			}
		}
	}
}

// TestCorruptedReferenceFailsTheRun corrupts the reference report of one
// version after set-up: the answers checked against it count as failed
// operations. Corrupted before set-up, it fails the warm-up, so the command
// exits non-zero either way.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"score_warm", "delta_edit", "fleet_mixed"} {
		w := workloadByName(name)
		good := tiny(t)
		fx := *good
		fx.repos = map[repoKey]*seededRepo{}
		for k, r := range good.repos {
			c := *r
			c.refs = append([][]byte(nil), r.refs...)
			fx.repos[k] = &c
		}
		tg, _, err := setup(ctx, w, &fx)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range w.repos {
			bad := append([]byte(nil), fx.repos[key].refs[0]...)
			bad[len(bad)/2] ^= 1
			fx.repos[key].refs[0] = bad
		}
		ss, _ := tg.window(ctx, 200*time.Millisecond, false)
		tg.close()
		r := &result{}
		r.count(ss)
		if r.Failed == 0 {
			t.Errorf("%s: a corrupted reference passed %d answers", name, r.Attempted)
		}
		if tg, _, err := setup(ctx, w, &fx); err == nil {
			tg.close()
			t.Errorf("%s: set-up passed a corrupted reference", name)
		}
	}
}

func TestCheckQuery(t *testing.T) {
	run := func(repo string, score float64, cwe121 int) api.QueryResponse {
		return api.QueryResponse{Runs: []findex.Run{{Repo: repo, Score: score, CountsByCWE: map[uint32]int{121: cwe121}}}}
	}
	ok := run("r", 0.9, 1)
	ok.Runs = append(ok.Runs, run("r", 0.4, 2).Runs...)
	if err := checkQuery(&ok, "r"); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	unordered := run("r", 0.4, 1)
	unordered.Runs = append(unordered.Runs, run("r", 0.9, 1).Runs...)
	for name, resp := range map[string]api.QueryResponse{
		"other repo": run("s", 0.5, 1),
		"no cwe121":  run("r", 0.5, 0),
		"unordered":  unordered,
		"empty":      {},
	} {
		if err := checkQuery(&resp, "r"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// newInputs generates the seeded inputs of a run without the references.
func newInputs(seed uint64, sc scale) *fixtures {
	fx := &fixtures{seed: seed, sc: sc, repos: map[repoKey]*seededRepo{}}
	for _, w := range workloads {
		for _, key := range w.repos {
			fx.repos[key] = &seededRepo{repoTree: genRepoKeyed(key, seed, sc)}
		}
	}
	return fx
}

func TestStreamDigestFollowsSeed(t *testing.T) {
	a, b, c := newInputs(1, tinyScale), newInputs(1, tinyScale), newInputs(2, tinyScale)
	for _, w := range workloads {
		if streamDigest(w, a, 16) != streamDigest(w, b, 16) {
			t.Errorf("%s: one seed gave two request streams", w.name)
		}
		if streamDigest(w, a, 16) == streamDigest(w, c, 16) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestDeclaredBenchmark checks BENCHMARK.json against the limits the
// benchmark is run under and against the workloads the code defines.
func TestDeclaredBenchmark(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if i >= len(workloads) || workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code defines another name or why", i, w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("%s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
}
