package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/metrics"
)

// referenceFindings is the collector's oracle, the logic the findings
// package's pooled collection used to run: AnalyzeFile on every file in
// tree order, the severity filter, then one stable sort by (file, line,
// rule, message) over the concatenation. No cache, no pool, no containment.
func referenceFindings(tree *metrics.Tree, minSev findings.Severity) *findings.Report {
	rep := &findings.Report{}
	for _, f := range tree.Files {
		ast, prog, _ := ir.Parse(f.Content)
		for _, fd := range findings.AnalyzeFile(f.Language, f.Content, ast, prog).Findings {
			if fd.Severity >= minSev {
				fd.File = f.Path
				rep.Findings = append(rep.Findings, fd)
			}
		}
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return rep
}

// findingsTree is a langgen MiniC tree plus a C file that does not parse
// (token rules only) and a file whose language is left for the path to
// decide.
func findingsTree(t *testing.T) *metrics.Tree {
	t.Helper()
	spec := langgen.DefaultSpec()
	spec.Files = 5
	spec.VulnDensity = 0.6
	tree := langgen.Generate(spec)
	tree.Files = append(tree.Files,
		metrics.File{Path: "legacy.c", Language: lang.C, Content: "int main( { char b[8]; gets(b); strcpy(b, argv); goto out; }\n"},
		metrics.File{Path: "zz_inferred.mc", Content: "int f(int n) { int d = read_input(); strcpy(n, d); return d / n; }\n"},
	)
	return tree
}

func marshalReport(t *testing.T, rep *findings.Report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// collectStatuses runs the collector and returns the report with every
// file's status in tree order.
func collectStatuses(t *testing.T, tree *metrics.Tree, cfg FindingsConfig) (*findings.Report, []FileStatus) {
	t.Helper()
	statuses := make([]FileStatus, len(tree.Files))
	cfg.FileDone = func(i int, d FileDiagnostic, _ []findings.Finding) { statuses[i] = d.Status }
	rep, err := CollectFindings(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, statuses
}

// TestCollectFindingsMatchesReference: at -jobs 1 and 8, without a cache,
// through a cold cache and through the warm one, at every severity floor,
// the collector's report is byte-identical to the reference; the warm pass
// analyzes nothing.
func TestCollectFindingsMatchesReference(t *testing.T) {
	tree := findingsTree(t)
	for _, sev := range []findings.Severity{findings.SevInfo, findings.SevMedium, findings.SevCritical} {
		want := marshalReport(t, referenceFindings(tree, sev))
		if sev == findings.SevInfo && !strings.Contains(want, "taint-") {
			t.Fatalf("test tree has no taint findings; the parity check is weak: %s", want)
		}
		for _, jobs := range []int{1, 8} {
			if got := marshalReport(t, mustCollect(t, tree, FindingsConfig{Jobs: jobs, MinSeverity: sev})); got != want {
				t.Fatalf("sev %s jobs=%d uncached:\n%s\nwant\n%s", sev, jobs, got, want)
			}
			cache := featcache.NewMemory()
			for _, pass := range []struct {
				name   string
				status FileStatus
			}{{"cold", StatusOK}, {"warm", StatusCacheHit}} {
				rep, statuses := collectStatuses(t, tree, FindingsConfig{Jobs: jobs, Cache: cache, MinSeverity: sev})
				if got := marshalReport(t, rep); got != want {
					t.Fatalf("sev %s jobs=%d %s:\n%s\nwant\n%s", sev, jobs, pass.name, got, want)
				}
				for i, s := range statuses {
					if s != pass.status {
						t.Fatalf("sev %s jobs=%d %s: %s is %s, want %s", sev, jobs, pass.name, tree.Files[i].Path, s, pass.status)
					}
				}
			}
		}
	}
}

func mustCollect(t *testing.T, tree *metrics.Tree, cfg FindingsConfig) *findings.Report {
	t.Helper()
	rep, err := CollectFindings(context.Background(), tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFindingsRecordServesEveryPath: one file's bytes at two paths share a
// findings record, and on the cold pass and the warm pass alike each
// finding names the path it was collected at.
func TestFindingsRecordServesEveryPath(t *testing.T) {
	src := "int f(int n) { int d = read_input(); strcpy(n, d); system(d); return d / n; }\n"
	tree := metrics.NewTree("twins",
		metrics.File{Path: "a/twin.mc", Language: lang.MiniC, Content: src},
		metrics.File{Path: "b/twin.mc", Language: lang.MiniC, Content: src},
	)
	want := referenceFindings(tree, findings.SevInfo)
	perPath := map[string]int{}
	for _, fd := range want.Findings {
		perPath[fd.File]++
	}
	if perPath["a/twin.mc"] == 0 || perPath["a/twin.mc"] != perPath["b/twin.mc"] {
		t.Fatalf("reference findings per path = %v, want the same nonzero count at both", perPath)
	}
	for _, jobs := range []int{1, 8} {
		cache := featcache.NewMemory()
		for _, pass := range []string{"cold", "warm"} {
			rep := mustCollect(t, tree, FindingsConfig{Jobs: jobs, Cache: cache})
			if got, w := marshalReport(t, rep), marshalReport(t, want); got != w {
				t.Fatalf("jobs=%d %s pass:\n%s\nwant\n%s", jobs, pass, got, w)
			}
		}
		if n, _ := cache.MemStats(); n != 1 {
			t.Fatalf("jobs=%d: %d cache records for one file's bytes at two paths, want 1", jobs, n)
		}
	}
}

// TestSharedRecordsServeConcurrentReaders: the memory tier hands every
// reader the same stored record, so many goroutines extract features and
// collect findings at once against one warm cache, from trees that hold
// one file's bytes at several paths. Each report names its own paths and
// equals the uncached one, no warm read misses, and the stored findings
// record keeps File blank. Under -race, a reader writing its path into the
// shared record would race every other reader.
func TestSharedRecordsServeConcurrentReaders(t *testing.T) {
	src := "int f(int n) { int d = read_input(); strcpy(n, d); system(d); return d / n; }\n"
	spec := langgen.DefaultSpec()
	spec.Files, spec.FuncsPerFile, spec.StmtsPerFunc = 2, 3, 6
	spec.VulnDensity = 0.6
	gen := langgen.Generate(spec)
	var trees []*metrics.Tree
	for r := 0; r < 4; r++ {
		tree := metrics.NewTree(fmt.Sprintf("repo%d", r),
			metrics.File{Path: fmt.Sprintf("r%d/a/twin.mc", r), Language: lang.MiniC, Content: src},
			metrics.File{Path: fmt.Sprintf("r%d/b/twin.mc", r), Language: lang.MiniC, Content: src},
			metrics.File{Path: fmt.Sprintf("r%d/twin.mc", r), Content: src},
		)
		for _, f := range gen.Files {
			f.Path = fmt.Sprintf("r%d/%s", r, f.Path)
			tree.Files = append(tree.Files, f)
		}
		trees = append(trees, tree)
	}
	// The trees differ only in their paths' first element, so one uncached
	// run gives every tree's vector, and its report gives every tree's
	// report with the paths renamed.
	ctx := context.Background()
	wantFV := ExtractFeatures(trees[0])
	rep0 := marshalReport(t, referenceFindings(trees[0], findings.SevInfo))
	wantRep := make([]string, len(trees))
	cache := featcache.NewMemory()
	for i, tree := range trees {
		wantRep[i] = strings.ReplaceAll(rep0, `"File":"r0/`, fmt.Sprintf(`"File":"r%d/`, i))
		if _, err := ExtractFeaturesWith(ctx, tree, ExtractConfig{Cache: cache}); err != nil {
			t.Fatal(err)
		}
		mustCollect(t, tree, FindingsConfig{Cache: cache})
	}
	_, warmMisses := cache.Stats()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				fv, err := ExtractFeaturesWith(ctx, trees[i], ExtractConfig{Jobs: 2, Cache: cache})
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range metrics.FeatureNames {
					if fv[n] != wantFV[n] {
						t.Errorf("tree %d: feature %s = %v, want %v (uncached)", i, n, fv[n], wantFV[n])
						return
					}
				}
				rep, err := CollectFindings(ctx, trees[i], FindingsConfig{Jobs: 2, Cache: cache})
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := json.Marshal(rep); err != nil || string(got) != wantRep[i] {
					t.Errorf("tree %d:\n%s\nwant\n%s", i, got, wantRep[i])
					return
				}
			}
		}(g % len(trees))
	}
	wg.Wait()
	if _, misses := cache.Stats(); misses != warmMisses {
		t.Fatalf("warm readers missed %d records", misses-warmMisses)
	}
	rec, ok := featcache.Get[findingsRecord](cache, findingsKey(trees[0].Files[0]))
	if !ok || len(rec.Findings) == 0 {
		t.Fatalf("the twins' findings record: %+v, %v", rec, ok)
	}
	for _, fd := range rec.Findings {
		if fd.File != "" {
			t.Fatalf("the stored findings record names %q; it must keep File blank", fd.File)
		}
	}
}

// TestCorruptFindingsRecordIsRecomputed: a findings record that decodes
// but is not the encoding of a findingsRecord (a bare null among them,
// since the record is a struct) reads as a corrupt miss; the file is
// analyzed again and the report still matches the reference.
func TestCorruptFindingsRecordIsRecomputed(t *testing.T) {
	tree := findingsTree(t)
	want := marshalReport(t, referenceFindings(tree, findings.SevInfo))
	for _, record := range []string{`null`, `{}`, `[]`, `{"findings":[{"Rule":"x"}]}`} {
		dir := t.TempDir()
		cache, err := featcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		mustCollect(t, tree, FindingsConfig{Cache: cache})
		err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return os.WriteFile(p, []byte(record), 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := featcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, statuses := collectStatuses(t, tree, FindingsConfig{Cache: fresh})
		if got := marshalReport(t, rep); got != want {
			t.Fatalf("record %q:\n%s\nwant\n%s", record, got, want)
		}
		for i, s := range statuses {
			if s != StatusOK {
				t.Fatalf("record %q: %s is %s, want %s", record, tree.Files[i].Path, s, StatusOK)
			}
		}
		if got := fresh.CorruptReads(); got != uint64(len(tree.Files)) {
			t.Fatalf("record %q: CorruptReads = %d, want %d", record, got, len(tree.Files))
		}
	}
}

// TestFindingsRecordKeyedByAnalyzedLanguage: the key carries the language
// AnalyzeFile runs at, so a file left for its path to decide shares the
// record of the same bytes declared at that language, and the same bytes
// at another language get a record of their own; and neither kind of
// record is ever read as the other.
func TestFindingsRecordKeyedByAnalyzedLanguage(t *testing.T) {
	src := "int f(int n) { int d = read_input(); strcpy(n, d); return n; }\n"
	cache := featcache.NewMemory()
	collect := func(f metrics.File) {
		t.Helper()
		mustCollect(t, metrics.NewTree("t", f), FindingsConfig{Cache: cache})
	}
	collect(metrics.File{Path: "x.mc", Content: src})
	collect(metrics.File{Path: "y.mc", Language: lang.MiniC, Content: src})
	if n, _ := cache.MemStats(); n != 1 {
		t.Fatalf("%d records after the same bytes at the inferred and the declared language, want 1", n)
	}
	collect(metrics.File{Path: "x.c", Language: lang.C, Content: src})
	if n, _ := cache.MemStats(); n != 2 {
		t.Fatalf("%d records after the same bytes as C, want 2", n)
	}
	tree := metrics.NewTree("t", metrics.File{Path: "x.mc", Language: lang.MiniC, Content: src})
	if _, err := ExtractFeaturesWith(context.Background(), tree, ExtractConfig{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if n, _ := cache.MemStats(); n != 3 {
		t.Fatalf("%d records after an extraction of cached findings, want 3 (a kind of its own)", n)
	}
	if c := cache.CorruptReads(); c != 0 {
		t.Fatalf("%d corrupt reads: a record of one kind was read as the other", c)
	}
}

// TestFindingsDegradedFileContained states what a degraded file's findings
// come to: a panicking or timed-out analysis is contained to its file,
// FileDone names the file with its status and detail while every other file
// completes, the collection fails with ErrFindingsDegraded instead of
// returning a partial report (the same at -jobs 1 and 8), and the degraded
// result is never cached, so the next run re-analyzes exactly that file.
func TestFindingsDegradedFileContained(t *testing.T) {
	tree := findingsTree(t)
	victim := tree.Files[2].Path
	want := marshalReport(t, referenceFindings(tree, findings.SevInfo))
	cases := []struct {
		name    string
		status  FileStatus
		detail  string
		timeout time.Duration
	}{
		{"panic", StatusPanic, "findings analysis panicked: injected findings bug", 0},
		// Roomy enough that no bystander times out under the race detector.
		{"timeout", StatusTimeout, "findings analysis exceeded 1s", time.Second},
	}
	for _, tc := range cases {
		for _, jobs := range []int{1, 8} {
			cache := featcache.NewMemory()
			release, stalled := make(chan struct{}), make(chan struct{})
			restore := SetFindingsTestHook(func(f metrics.File) {
				if f.Path != victim {
					return
				}
				if tc.timeout == 0 {
					panic("injected findings bug")
				}
				<-release
				close(stalled)
			})
			diags := make([]FileDiagnostic, len(tree.Files))
			rep, err := CollectFindings(context.Background(), tree, FindingsConfig{
				Jobs: jobs, Cache: cache, FileTimeout: tc.timeout,
				FileDone: func(i int, d FileDiagnostic, _ []findings.Finding) { diags[i] = d },
			})
			if tc.timeout > 0 {
				// The stalled analysis read the hook on its own goroutine;
				// let it finish before the hook is removed.
				close(release)
				<-stalled
			}
			restore()
			if !errors.Is(err, ErrFindingsDegraded) || rep != nil {
				t.Fatalf("%s jobs=%d: report %v, err %v; want no report and ErrFindingsDegraded", tc.name, jobs, rep, err)
			}
			if !strings.Contains(err.Error(), victim) {
				t.Fatalf("%s jobs=%d: error %q does not name %s", tc.name, jobs, err, victim)
			}
			for i, d := range diags {
				switch {
				case d.Path == victim && (d.Status != tc.status || d.Detail != tc.detail):
					t.Fatalf("%s jobs=%d: victim diagnostic %+v, want status %s detail %q", tc.name, jobs, d, tc.status, tc.detail)
				case d.Path != victim && d.Status != StatusOK:
					t.Fatalf("%s jobs=%d: bystander %s (%d) is %+v", tc.name, jobs, d.Path, i, d)
				}
			}
			if n, _ := cache.MemStats(); n != len(tree.Files)-1 {
				t.Fatalf("%s jobs=%d: %d records cached, want every file but the degraded one (%d)", tc.name, jobs, n, len(tree.Files)-1)
			}

			_, missesBefore := cache.Stats()
			rep, statuses := collectStatuses(t, tree, FindingsConfig{Jobs: jobs, Cache: cache})
			if got := marshalReport(t, rep); got != want {
				t.Fatalf("%s jobs=%d: healed run differs from the reference:\n%s\nwant\n%s", tc.name, jobs, got, want)
			}
			if _, misses := cache.Stats(); misses-missesBefore != 1 {
				t.Fatalf("%s jobs=%d: healed run missed %d records, want only the degraded file's", tc.name, jobs, misses-missesBefore)
			}
			for i, s := range statuses {
				if (tree.Files[i].Path == victim) != (s == StatusOK) {
					t.Fatalf("%s jobs=%d: healed run has %s as %s", tc.name, jobs, tree.Files[i].Path, s)
				}
			}
		}
	}
}

// TestCollectFindingsCanceled: a pre-canceled context runs no analysis,
// and one canceled mid-pool returns its error, not a report.
func TestCollectFindingsCanceled(t *testing.T) {
	tree := findingsTree(t)
	ran := false
	restore := SetFindingsTestHook(func(metrics.File) { ran = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectFindings(ctx, tree, FindingsConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}
	restore()
	if ran {
		t.Fatal("pre-canceled context still dispatched findings analyses")
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	defer SetFindingsTestHook(func(metrics.File) { once.Do(cancel) })()
	if rep, err := CollectFindings(ctx, tree, FindingsConfig{Jobs: 2}); !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("canceled mid-pool: report %v, err %v; want context.Canceled and no report", rep, err)
	}
}

// TestFindingsRecordSkipsWhatJSONWouldChange: a MiniC identifier may hold a
// byte that is not UTF-8, and JSON would replace it in a message. Such a
// file's findings are never cached, so a warm run prints exactly what a
// cold run prints.
func TestFindingsRecordSkipsWhatJSONWouldChange(t *testing.T) {
	tree := metrics.NewTree("latin1",
		metrics.File{Path: "a.mc", Language: lang.MiniC, Content: "int f\xe9(int n) { int d = read_input(); strcpy(n, d); return 10 / n; }\n"},
		metrics.File{Path: "b.mc", Language: lang.MiniC, Content: "int g(int n) { int d = read_input(); strcpy(n, d); return 10 / n; }\n"},
	)
	want := referenceFindings(tree, findings.SevInfo).String()
	if !strings.Contains(want, "f\xe9") {
		t.Fatalf("no message carries the non-UTF-8 identifier:\n%s", want)
	}
	cache := featcache.NewMemory()
	for _, pass := range []string{"cold", "warm"} {
		rep, statuses := collectStatuses(t, tree, FindingsConfig{Cache: cache})
		if got := rep.String(); got != want {
			t.Fatalf("%s pass:\n%q\nwant\n%q", pass, got, want)
		}
		if statuses[0] != StatusOK {
			t.Fatalf("%s pass: a.mc is %s, want %s", pass, statuses[0], StatusOK)
		}
	}
	if n, _ := cache.MemStats(); n != 1 {
		t.Fatalf("%d records cached, want only b.mc's", n)
	}
}
