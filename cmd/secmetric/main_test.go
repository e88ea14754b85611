package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store/findex"
	"repro/pkg/api"
	"repro/pkg/client"
)

var (
	modelOnce sync.Once
	modelPath string
	modelErr  error
)

// sharedModel trains one small model for every CLI test.
func sharedModel(t *testing.T) string {
	t.Helper()
	modelOnce.Do(func() {
		c, err := secmetric.DefaultCorpus()
		if err != nil {
			modelErr = err
			return
		}
		m, err := secmetric.Train(c, secmetric.TrainConfig{
			Kind: secmetric.KindLogistic, Folds: 3, Seed: 1,
		})
		if err != nil {
			modelErr = err
			return
		}
		dir, err := os.MkdirTemp("", "secmetric-cli")
		if err != nil {
			modelErr = err
			return
		}
		modelPath = filepath.Join(dir, "model.json")
		modelErr = secmetric.SaveModel(m, modelPath)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelPath
}

func writeSrc(t *testing.T, name, content string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const cliSrc = `
int main(void) {
	char buf[8];
	gets(buf);
	printf(buf);
	return 0;
}`

func TestCLIAnalyze(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	if err := run(context.Background(), []string{"analyze", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIAnalyzeDiag(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	// A second, unparseable file gives the diagnostics a parse-skip row.
	if err := os.WriteFile(filepath.Join(dir, "bad.c"), []byte("int main( { nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"analyze", "-diag", "-file-timeout", "1m", "-jobs", "2", dir}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"analyze", "-file-timeout", "bogus", dir}); err == nil {
		t.Fatal("malformed -file-timeout accepted")
	}
}

func TestCLIScore(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	if err := run(context.Background(), []string{"score", "-model", sharedModel(t), dir}); err != nil {
		t.Fatal(err)
	}
}

func TestCLICompare(t *testing.T) {
	old := writeSrc(t, "main.c", cliSrc)
	clean := writeSrc(t, "main.c", "int main(void) { return 0; }\n")
	if err := run(context.Background(), []string{"compare", "-model", sharedModel(t), old, clean}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIFocus(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	if err := run(context.Background(), []string{"focus", "-model", sharedModel(t), "-budget", "7", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIFindings(t *testing.T) {
	// The wrapped source makes every flow cross-function; the findings
	// subcommand must still surface the CWE-121 copy.
	dir := writeSrc(t, "main.c", `
int fetch(void) {
	int p = recv(0);
	return p;
}
int main(void) {
	int buf = 0;
	int req = fetch();
	strcpy(buf, req);
	return 0;
}`)
	for _, args := range [][]string{
		{"findings", dir},
		{"findings", "-min", "high", dir},
		{"findings", "-json", dir},
		{"findings", "-min", "critical", dir}, // filters everything: "no findings" path
	} {
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	// A second file gives the pool two workers' worth; the report must not
	// depend on the width.
	if err := os.WriteFile(filepath.Join(dir, "util.c"), []byte(cliSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"-json", "-min=info"} {
		j1 := captureStdout(t, func() error {
			return run(context.Background(), []string{"findings", "-jobs", "1", format, dir})
		})
		j8 := captureStdout(t, func() error {
			return run(context.Background(), []string{"findings", "-jobs", "8", format, dir})
		})
		if j1 != j8 {
			t.Fatalf("findings %s: -jobs 1 and -jobs 8 differ:\n--- jobs=1\n%s\n--- jobs=8\n%s", format, j1, j8)
		}
		if !strings.Contains(j1, "util.c") {
			t.Fatalf("findings %s output misses util.c:\n%s", format, j1)
		}
	}
	rep, err := secmetric.CollectFindingsDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountCWE(121) == 0 {
		t.Fatalf("wrapped-source strcpy not surfaced as CWE-121:\n%s", rep)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},                                 // no subcommand
		{"unknown"},                        // bad subcommand
		{"analyze"},                        // missing dir
		{"analyze", "/no/dir"},             // missing path
		{"score"},                          // missing dir
		{"compare", "just-one"},            // wrong arity
		{"focus"},                          // missing dir
		{"findings"},                       // missing dir
		{"findings", "-min", "bogus", "x"}, // bad severity
		{"hotspots", "x"},                  // removed alias of rank
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestErrorLinePrefixOnce: a library error already wrapped in the
// "secmetric:" prefix is printed as is, anything else gains the prefix.
func TestErrorLinePrefixOnce(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{fmt.Errorf("secmetric: %w", os.ErrNotExist), "secmetric: file does not exist"},
		{errors.New("findings needs exactly one directory"), "secmetric: findings needs exactly one directory"},
	} {
		if got := errorLine(tc.err); got != tc.want {
			t.Errorf("errorLine(%q) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestCLIBadModelFile(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"score", "-model", bad, dir}); err == nil {
		t.Fatal("corrupt model accepted")
	}
}

func TestCLIRank(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	if err := run(context.Background(), []string{"rank", "-top", "3", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"rank", "-json", "-explain", "-vcs-seed", "7", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"rank", t.TempDir()}); err == nil {
		t.Fatal("empty dir produced a ranking")
	}
}

func TestCLIScoreJSON(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	if err := run(context.Background(), []string{"score", "-model", sharedModel(t), "-json", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIImage(t *testing.T) {
	front := writeSrc(t, "main.c", cliSrc)
	back := writeSrc(t, "db.c", "int main(void) { return 0; }\n")
	manifest := filepath.Join(t.TempDir(), "image.json")
	content := `{
  "name": "test-image",
  "components": [
    {"name": "front", "dir": ` + jsonStr(front) + `, "exposure": "internet", "depends_on": ["back"]},
    {"name": "back", "dir": ` + jsonStr(back) + `, "exposure": "internal", "privileged": true}
  ]
}`
	if err := os.WriteFile(manifest, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"image", "-model", sharedModel(t), manifest}); err != nil {
		t.Fatal(err)
	}
	// Bad manifest cases.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","components":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"image", "-model", sharedModel(t), bad}); err == nil {
		t.Fatal("componentless manifest accepted")
	}
}

func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestCLIAnalyzeTraceAndSlowest runs a traced analysis at -jobs 1 and 8 and
// checks the slowest-files table and the Perfetto export: every event is a
// named complete ("X") event with a non-negative start and duration on a
// lane (tid) of at least 1, and both widths export the same (name, args)
// sequence. a.mc is analyzed first and takes longest, so at -jobs 8 the
// other files finish before it: the sequences agree only because children
// render in work-item order, not completion order.
func TestCLIAnalyzeTraceAndSlowest(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	var big strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&big, "int f%d(int x) { int y = recv(x); if (x > %d) { strcpy(y, x); return y; } return x + %d; }\n", i, i, i)
	}
	for name, src := range map[string]string{"a.mc": big.String(), "two.c": "int f(int x) { return x + 1; }\n"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var shapes []string
	for _, jobs := range []string{"1", "8"} {
		traceFile := filepath.Join(t.TempDir(), "out.json")
		out := captureStdout(t, func() error {
			return run(context.Background(), []string{"analyze", "-jobs", jobs, "-trace", traceFile, "-slowest", "3", dir})
		})
		if !strings.Contains(out, "file") || !strings.Contains(out, "a.mc") || !strings.Contains(out, "main.c") {
			t.Fatalf("jobs=%s: slowest table missing file rows:\n%s", jobs, out)
		}
		shapes = append(shapes, traceShape(t, traceFile))
	}
	if shapes[0] != shapes[1] {
		t.Fatalf("trace exports differ between -jobs 1 and 8:\n--- jobs=1\n%s--- jobs=8\n%s", shapes[0], shapes[1])
	}
}

// traceShape checks every event of a trace_event file and returns its
// durationless shape: the ordered (name, args) sequence. Lanes (tids) are
// left out, since they depend on which spans overlapped in time.
func traceShape(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			TID  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) < 4 {
		t.Fatalf("trace has only %d events", len(tf.TraceEvents))
	}
	var shape strings.Builder
	for i, ev := range tf.TraceEvents {
		switch {
		case ev.Name == "" || ev.Ph != "X":
			t.Fatalf("event %d: name %q phase %q, want a named \"X\" event", i, ev.Name, ev.Ph)
		case ev.TS == nil || *ev.TS < 0 || ev.Dur == nil || *ev.Dur < 0:
			t.Fatalf("event %d (%s): missing or negative ts or dur", i, ev.Name)
		case ev.TID < 1:
			t.Fatalf("event %d (%s): tid %d, want >= 1", i, ev.Name, ev.TID)
		}
		fmt.Fprintf(&shape, "%s %s\n", ev.Name, ev.Args)
	}
	return shape.String()
}

// TestCLIAnalyzeTracingDoesNotChangeOutput is the acceptance criterion:
// the analyze output (vector and diagnostics, JSON-encoded) is
// byte-identical whether or not a trace is being recorded.
func TestCLIAnalyzeTracingDoesNotChangeOutput(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	if err := os.WriteFile(filepath.Join(dir, "bad.c"), []byte("int main( { nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []string{"1", "8"} {
		plain := captureStdout(t, func() error {
			return run(context.Background(), []string{"analyze", "-json", "-diag", "-jobs", jobs, dir})
		})
		traceFile := filepath.Join(t.TempDir(), "out.json")
		traced := captureStdout(t, func() error {
			return run(context.Background(), []string{"analyze", "-json", "-diag", "-jobs", jobs, "-trace", traceFile, dir})
		})
		if plain != traced {
			t.Fatalf("jobs=%s: traced stdout differs from untraced:\n--- plain\n%s\n--- traced\n%s", jobs, plain, traced)
		}
		if strings.Contains(plain, `"trace"`) {
			t.Fatalf("analyze output contains a trace key:\n%s", plain)
		}
	}
}

// writeTree writes files into a fresh directory and returns its path.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// compareFixture writes two versions of a tree: keep.c is unchanged,
// edit.c edited, gone.c removed and fresh.c added.
func compareFixture(t *testing.T) (oldDir, newDir string) {
	t.Helper()
	oldDir = writeTree(t, map[string]string{
		"keep.c": "int keep(int x) { return x + 1; }\n",
		"edit.c": cliSrc,
		"gone.c": "int gone(void) { return 9; }\n",
	})
	newDir = writeTree(t, map[string]string{
		"keep.c":  "int keep(int x) { return x + 1; }\n",
		"edit.c":  "int main(void) { return 0; }\n",
		"fresh.c": "int fresh(int n) { if (n > 2) { return n; } return 0; }\n",
	})
	return oldDir, newDir
}

// TestCLICompareSharedCache: with -cache unset and set, `compare` prints
// model.Compare over two cacheless extractions of the same directories,
// and the new version's unchanged file is read from the cache the old
// version filled.
func TestCLICompareSharedCache(t *testing.T) {
	ctx := context.Background()
	oldDir, newDir := compareFixture(t)
	modelFile := sharedModel(t)
	model, err := secmetric.LoadModel(modelFile)
	if err != nil {
		t.Fatal(err)
	}
	extract := func(dir string) secmetric.FeatureVector {
		tree, err := metrics.LoadTree(dir)
		if err != nil {
			t.Fatal(err)
		}
		return core.ExtractFeatures(tree)
	}
	want := model.Compare(oldDir, extract(oldDir), newDir, extract(newDir)).String()
	for _, persist := range []bool{false, true} {
		args := []string{"compare", "-model", modelFile}
		var acfg secmetric.AnalyzeConfig
		if persist {
			// The CLI run and the hit check each start from a cold cache.
			args = append(args, "-cache", filepath.Join(t.TempDir(), "fc"))
			acfg.CacheDir = filepath.Join(t.TempDir(), "fc")
		}
		got := captureStdout(t, func() error {
			return run(ctx, append(args, oldDir, newDir))
		})
		if got != want {
			t.Fatalf("persist=%v: compare output differs from the library:\n--- cli ---\n%s\n--- library ---\n%s", persist, got, want)
		}
		_, diags, err := analyzePair(ctx, oldDir, newDir, acfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range diags[1].Files {
			if hit := f.Status == secmetric.StatusCacheHit; hit != (f.Path == "keep.c") {
				t.Errorf("persist=%v: new version's %s has status %s", persist, f.Path, f.Status)
			}
		}
	}
	// Identical trees still print a comparison.
	same := captureStdout(t, func() error {
		return run(ctx, []string{"compare", "-model", modelFile, oldDir, oldDir})
	})
	if !strings.Contains(same, oldDir) {
		t.Fatalf("self-compare output missing the directory name:\n%s", same)
	}
}

// TestCLIHistoryAndQuery records two runs with -history and reads them
// back through `secmetric query`, checking the planner's -explain output
// and that the CLI's answer equals a forced full scan of the same store.
func TestCLIHistoryAndQuery(t *testing.T) {
	dir := writeSrc(t, "main.c", cliSrc)
	db := filepath.Join(t.TempDir(), "findings.db")
	if err := run(context.Background(), []string{"findings", "-history", db, dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"analyze", "-history", db, dir}); err != nil {
		t.Fatal(err)
	}

	queryJSON := func(args ...string) []secmetric.HistoryRun {
		t.Helper()
		out := captureStdout(t, func() error {
			return run(context.Background(), append([]string{"query", "-db", db, "-json"}, args...))
		})
		var runs []secmetric.HistoryRun
		if err := json.Unmarshal([]byte(out), &runs); err != nil {
			t.Fatalf("query output %q: %v", out, err)
		}
		return runs
	}

	all := queryJSON("")
	if len(all) != 2 {
		t.Fatalf("recorded %d runs, want 2: %+v", len(all), all)
	}
	if all[0].Seq != 1 || all[1].Seq != 2 || all[0].Source != "findings" || all[1].Source != "analyze" {
		t.Fatalf("run shape wrong: %+v", all)
	}

	// cliSrc's gets() call is a CWE-242 finding at high severity; an
	// indexed predicate must match both runs, identically to a full scan.
	planned := queryJSON("severity >= high")
	hist, err := findex.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := hist.QueryString("severity >= high", findex.Options{ForceFullScan: true})
	hist.Close() // read only, and the CLI reopens the db below
	if err != nil {
		t.Fatal(err)
	}
	pj, _ := json.Marshal(planned)
	fj, _ := json.Marshal(full)
	if string(pj) != string(fj) {
		t.Fatalf("CLI parity violation:\n planned: %s\n full:    %s", pj, fj)
	}
	if len(planned) != 2 {
		t.Fatalf("severity query matched %d runs, want 2", len(planned))
	}

	// Human-readable table and the no-match path.
	table := captureStdout(t, func() error {
		return run(context.Background(), []string{"query", "-db", db, "-explain", "severity >= high"})
	})
	if !strings.Contains(table, "REPO") || !strings.Contains(strings.ToLower(table), "high") {
		t.Fatalf("table output wrong:\n%s", table)
	}
	none := captureStdout(t, func() error {
		return run(context.Background(), []string{"query", "-db", db, "total = 12345"})
	})
	if !strings.Contains(none, "no runs match") {
		t.Fatalf("empty-result output wrong: %q", none)
	}

	// A malformed query is a CLI error, not a panic.
	if err := run(context.Background(), []string{"query", "-db", db, "bogus > 1"}); err == nil {
		t.Fatal("malformed query accepted")
	}
}

// A query reads a history and never creates one: an absent -db path is an
// error naming it, and nothing is left behind.
func TestCLIQueryMissingDB(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "typo.db")
	err := run(context.Background(), []string{"query", "-db", db, "cwe121 > 0"})
	if err == nil || !strings.Contains(err.Error(), db) {
		t.Fatalf("query of an absent -db: err = %v, want an error naming %s", err, db)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("query left %d file(s) behind, first %s", len(entries), entries[0].Name())
	}
}

// canonJSON re-marshals JSON text or a value with sorted keys and fixed
// indentation, so two are byte-identical iff they are equal.
func canonJSON(t *testing.T, v any) string {
	t.Helper()
	raw, ok := v.(string)
	if !ok {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		raw = string(b)
	}
	var x any
	if err := json.Unmarshal([]byte(raw), &x); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(x, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCLIMatchesDaemon: `score -json`, `rank -json` and `compare` print
// exactly what secmetricd answers for the same directories and model file.
func TestCLIMatchesDaemon(t *testing.T) {
	const dir = "../../examples/vulnapp"
	ctx := context.Background()
	modelFile := sharedModel(t)
	reg := server.NewRegistry("", map[string]string{"model": modelFile})
	if _, err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{Workers: 1}).Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	tree, err := client.TreeFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	cliScore := captureStdout(t, func() error {
		return run(ctx, []string{"score", "-model", modelFile, "-json", dir})
	})
	score, err := c.Score(ctx, api.ScoreRequest{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonJSON(t, score.Report), canonJSON(t, cliScore); got != want {
		t.Fatalf("daemon score differs from the CLI:\n%s\nvs\n%s", got, want)
	}

	cliRank := captureStdout(t, func() error {
		return run(ctx, []string{"rank", "-top", "0", "-json", dir})
	})
	// The CLI loader names the ranked tree by the directory's base name.
	tree.Name = filepath.Base(dir)
	rank, err := c.Rank(ctx, api.RankRequest{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonJSON(t, rank.Ranking), canonJSON(t, cliRank); got != want {
		t.Fatalf("daemon ranking differs from the CLI:\n%s\nvs\n%s", got, want)
	}

	oldDir, newDir := compareFixture(t)
	cliCompare := captureStdout(t, func() error {
		return run(ctx, []string{"compare", "-model", modelFile, oldDir, newDir})
	})
	oldTree, err := client.TreeFromDir(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	newTree, err := client.TreeFromDir(newDir)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := c.Compare(ctx, api.CompareRequest{Old: oldTree, New: newTree})
	if err != nil {
		t.Fatal(err)
	}
	if got := cmp.Comparison.String(); got != cliCompare {
		t.Fatalf("daemon comparison differs from the CLI:\n%s\nvs\n%s", got, cliCompare)
	}
}

// TestCLIFindingsMatchesDaemon: `secmetric findings -json` at -jobs 1 and
// 8 is byte-identical (after canonical re-marshal) to /v1/findings from a
// daemon at the same pool width, on the daemon's cold request and on its
// warm one; and `analyze -history` records that report through a cold and
// then a warm -cache.
func TestCLIFindingsMatchesDaemon(t *testing.T) {
	const dir = "../../examples/vulnapp"
	ctx := context.Background()
	tree, err := client.TreeFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, jobs := range []string{"1", "8"} {
		cli := canonJSON(t, captureStdout(t, func() error {
			return run(ctx, []string{"findings", "-jobs", jobs, "-json", dir})
		}))
		if want == "" {
			want = cli
		} else if cli != want {
			t.Fatalf("findings -jobs %s differs from -jobs 1:\n%s\nvs\n%s", jobs, cli, want)
		}
		n, _ := strconv.Atoi(jobs)
		ts := httptest.NewServer(server.New(server.NewRegistry("", nil), server.Config{Workers: 1, AnalyzeJobs: n}).Handler())
		c := client.New(ts.URL)
		for _, pass := range []string{"cold", "warm"} {
			resp, err := c.Findings(ctx, api.FindingsRequest{Tree: tree})
			if err != nil {
				t.Fatal(err)
			}
			if got := canonJSON(t, resp.Report); got != want {
				t.Fatalf("jobs=%s %s daemon findings differ from the CLI:\n%s\nvs\n%s", jobs, pass, got, want)
			}
		}
		ts.Close()
	}
	if !strings.Contains(want, `"Rule"`) {
		t.Fatalf("vulnapp has no findings; the parity check is vacuous: %s", want)
	}

	db := filepath.Join(t.TempDir(), "findings.db")
	cache := t.TempDir()
	for i := 0; i < 2; i++ {
		if err := run(ctx, []string{"analyze", "-cache", cache, "-history", db, dir}); err != nil {
			t.Fatal(err)
		}
	}
	out := captureStdout(t, func() error { return run(ctx, []string{"query", "-db", db, "-json", ""}) })
	var runs []secmetric.HistoryRun
	if err := json.Unmarshal([]byte(out), &runs); err != nil {
		t.Fatalf("query output %q: %v", out, err)
	}
	if len(runs) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		if got := canonJSON(t, &secmetric.FindingsReport{Findings: r.Findings}); got != want {
			t.Fatalf("analyze -history run %d recorded other findings:\n%s\nvs\n%s", r.Seq, got, want)
		}
	}
}
