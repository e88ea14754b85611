package funcrank

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/vcsgen"
)

func vulnappTree(t testing.TB) *metrics.Tree {
	t.Helper()
	tree, err := metrics.LoadTree("../../examples/vulnapp")
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Files) == 0 {
		t.Fatal("vulnapp example is empty")
	}
	return tree
}

func rank(t *testing.T, tree *metrics.Tree, cfg Config) *Ranking {
	t.Helper()
	r, err := Rank(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRankVulnappGolden pins the acceptance ordering: the function calling
// three sinks ranks first, the sink wrappers follow (ties broken by
// qualified name), and the benign input wrapper comes last.
func TestRankVulnappGolden(t *testing.T) {
	r := rank(t, vulnappTree(t), Config{Top: 10})
	want := []string{"main", "copy_into", "log_request", "run_handler", "fetch_request"}
	if len(r.Ranked) != len(want) {
		t.Fatalf("ranked %d functions, want %d", len(r.Ranked), len(want))
	}
	for i, name := range want {
		if r.Ranked[i].Name != name {
			t.Errorf("rank %d = %s, want %s", i+1, r.Ranked[i].Name, name)
		}
		if r.Ranked[i].Rank != i+1 {
			t.Errorf("entry %d carries rank %d", i, r.Ranked[i].Rank)
		}
	}
	// The known-vulnerable functions must strictly outrank the benign one.
	last := r.Ranked[len(r.Ranked)-1]
	if last.Name != "fetch_request" {
		t.Fatalf("last = %s, want fetch_request", last.Name)
	}
	for _, e := range r.Ranked[:len(r.Ranked)-1] {
		if e.VulnScore <= last.VulnScore {
			t.Errorf("%s vuln score %.2f does not exceed benign %.2f", e.Name, e.VulnScore, last.VulnScore)
		}
	}
	// Deep features actually populated: main fans out to the wrappers and
	// reaches three distinct sinks.
	top := r.Ranked[0]
	if top.Features.SinkReach < 3 || top.Features.FanOut < 3 {
		t.Errorf("main features = %+v, want sink_reach >= 3 and fan_out >= 3", top.Features)
	}
	if top.Drivers == nil {
		t.Error("main has no drivers")
	}
}

// TestRankJobsParity is the determinism contract: byte-identical rankings
// at every worker-pool width.
func TestRankJobsParity(t *testing.T) {
	tree := vulnappTree(t)
	// Replicate the file so there is real work to spread across workers.
	for i := 0; i < 7; i++ {
		f := tree.Files[0]
		f.Path = f.Path + string(rune('a'+i))
		tree.Files = append(tree.Files, f)
	}
	enc := func(r *Ranking) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	one := enc(rank(t, tree, Config{Jobs: 1, VCS: vcsgen.New(9)}))
	for _, jobs := range []int{2, 4, 8} {
		if got := enc(rank(t, tree, Config{Jobs: jobs, VCS: vcsgen.New(9)})); got != one {
			t.Fatalf("ranking bytes differ between -jobs 1 and -jobs %d", jobs)
		}
	}
}

// TestPanicContainmentFunction injects a panic into one function's deep
// analysis: that function must appear degraded with its token-level
// features intact, while every other function keeps its deep facts.
func TestPanicContainmentFunction(t *testing.T) {
	deepTestHook = func(file, fn string) {
		if fn == "copy_into" {
			panic("injected: copy_into deep analysis")
		}
	}
	defer func() { deepTestHook = nil }()

	r := rank(t, vulnappTree(t), Config{})
	var degraded, intact *RankedFunction
	for i := range r.Ranked {
		switch r.Ranked[i].Name {
		case "copy_into":
			degraded = &r.Ranked[i]
		case "main":
			intact = &r.Ranked[i]
		}
	}
	if degraded == nil || intact == nil {
		t.Fatal("expected functions missing from the ranking")
	}
	if !degraded.Degraded {
		t.Fatal("copy_into not marked degraded after injected panic")
	}
	// Base metrics survive: copy_into's body contains a strcpy call site
	// the token scan sees without any deep analysis.
	if degraded.Features.UnsafeCalls == 0 || degraded.Features.Lines == 0 {
		t.Errorf("degraded features lost the token-level base: %+v", degraded.Features)
	}
	// Deep features are zeroed for the degraded function only.
	if degraded.Features.Blocks != 0 || degraded.Features.SinkReach != 0 {
		t.Errorf("degraded function kept deep features: %+v", degraded.Features)
	}
	if intact.Degraded || intact.Features.SinkReach == 0 {
		t.Errorf("panic leaked beyond its function: main = %+v", intact.Features)
	}
}

// TestUnparsedFileBaseOnly checks the parse-skip semantics: a file that
// fails to parse yields base-only, NON-degraded functions — degradation is
// reserved for panics, not expected coverage gaps.
func TestUnparsedFileBaseOnly(t *testing.T) {
	tree := &metrics.Tree{Name: "t", Files: []metrics.File{{
		Path:     "broken.mc",
		Language: lang.MiniC,
		Content:  "int f(int a) { this is not minic @@@ }\nint g(void) { strcpy(a, b); }\n",
	}}}
	r := rank(t, tree, Config{})
	if len(r.Ranked) == 0 {
		t.Fatal("no functions from token scan")
	}
	for _, e := range r.Ranked {
		if e.Degraded {
			t.Errorf("%s marked degraded for a mere parse failure", e.Name)
		}
		if e.Features.Blocks != 0 {
			t.Errorf("%s has CFG facts without a successful parse", e.Name)
		}
	}
}

// TestTopTrim checks that Top trims the emission but not the accounting.
func TestTopTrim(t *testing.T) {
	r := rank(t, vulnappTree(t), Config{Top: 2})
	if r.Functions != 5 {
		t.Fatalf("Functions = %d, want 5", r.Functions)
	}
	if len(r.Ranked) != 2 {
		t.Fatalf("len(Ranked) = %d, want 2", len(r.Ranked))
	}
	if r.Ranked[0].Rank != 1 || r.Ranked[1].Rank != 2 {
		t.Fatalf("trimmed ranks = %d, %d", r.Ranked[0].Rank, r.Ranked[1].Rank)
	}
}

// TestVCSFeaturesJoin checks that a generator populates the process-metric
// block and changes scores deterministically.
func TestVCSFeaturesJoin(t *testing.T) {
	tree := vulnappTree(t)
	plain := rank(t, tree, Config{})
	with := rank(t, tree, Config{VCS: vcsgen.New(3)})
	for _, e := range with.Ranked {
		if e.Features.Commits == 0 || e.Features.Churn == 0 {
			t.Errorf("%s missing process metrics: %+v", e.Name, e.Features)
		}
		if e.Features.CommitsPerMonth <= 0 {
			t.Errorf("%s commits_per_month = %f", e.Name, e.Features.CommitsPerMonth)
		}
	}
	for _, e := range plain.Ranked {
		if e.Features.Commits != 0 || e.Features.Churn != 0 {
			t.Errorf("%s has process metrics without a generator", e.Name)
		}
	}
	again := rank(t, tree, Config{VCS: vcsgen.New(3)})
	a, _ := json.Marshal(with)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("seeded VCS ranking not reproducible")
	}
}

// TestRankCanceledContext is the regression for the worker-pool deadlock:
// a context canceled while files still await dispatch must make Rank
// return the context error promptly instead of blocking forever on the
// work channel (which leaked the daemon's worker-slot semaphore).
func TestRankCanceledContext(t *testing.T) {
	tree := vulnappTree(t)
	// Far more files than workers, so cancellation lands mid-dispatch.
	for i := 0; i < 63; i++ {
		f := tree.Files[0]
		f.Path = fmt.Sprintf("%s.%02d", f.Path, i)
		tree.Files = append(tree.Files, f)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Rank(ctx, tree, Config{Jobs: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Rank returned no error under a canceled context")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Rank deadlocked under a canceled context")
	}
}

// TestJoinDeepDuplicateNames pins the ambiguous-name rule: when the token
// scanner saw one name twice in a file, neither occurrence may inherit the
// single deep-facts entry for that name (it belongs to an unknown one of
// them), while uniquely named functions join as usual.
func TestJoinDeepDuplicateNames(t *testing.T) {
	scans := []metrics.FunctionScan{
		{FunctionMetrics: metrics.FunctionMetrics{Name: "helper", Line: 1}},
		{FunctionMetrics: metrics.FunctionMetrics{Name: "helper", Line: 10}},
		{FunctionMetrics: metrics.FunctionMetrics{Name: "other", Line: 20}},
	}
	deep := map[string]deepFacts{
		"helper": {fanIn: 7},
		"other":  {fanIn: 3},
	}
	cands := joinDeep(scans, deep, false)
	if len(cands) != 3 {
		t.Fatalf("joined %d candidates, want 3", len(cands))
	}
	for _, c := range cands[:2] {
		if c.hasDeep {
			t.Errorf("duplicate-named %q at line %d inherited deep facts", c.scan.Name, c.scan.Line)
		}
		if c.degraded {
			t.Errorf("duplicate-named %q at line %d marked degraded", c.scan.Name, c.scan.Line)
		}
	}
	if !cands[2].hasDeep || cands[2].deep.fanIn != 3 {
		t.Errorf("uniquely named %q lost its deep facts: %+v", cands[2].scan.Name, cands[2])
	}
}

// TestBins checks the binning function's log2 bucket boundaries.
func TestBins(t *testing.T) {
	cases := []struct {
		score float64
		bin   int
	}{
		{0, 0}, {0.9, 0}, {1, 1}, {2.9, 1}, {3, 2}, {6.9, 2}, {7, 3}, {14.9, 3}, {15, 4},
	}
	for _, c := range cases {
		if got := bin(c.score); got != c.bin {
			t.Errorf("bin(%.1f) = %d, want %d", c.score, got, c.bin)
		}
	}
}

// BenchmarkRank times one single-worker ranking of a 16-file tree of
// vulnapp replicas: function scan, deep analysis, and LEOPARD binning.
func BenchmarkRank(b *testing.B) {
	seed := vulnappTree(b).Files[0]
	tree := &metrics.Tree{Name: "bench"}
	for i := 0; i < 16; i++ {
		f := seed
		f.Path = fmt.Sprintf("f%02d%s", i, seed.Language.Extension())
		tree.Files = append(tree.Files, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Rank(context.Background(), tree, Config{Jobs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if r.Functions == 0 {
			b.Fatal("ranked no functions")
		}
	}
}
