package findex

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cwe"
	"repro/internal/findings"
	"repro/internal/store"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "findex.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// synthRun builds a randomized but deterministic run.
func synthRun(rng *rand.Rand, repo string, i int) Run {
	rep := &findings.Report{}
	nf := rng.Intn(6)
	cwePool := []cwe.ID{0, 119, 121, 134, 78, 369, 676}
	sevPool := []findings.Severity{findings.SevInfo, findings.SevLow, findings.SevMedium, findings.SevHigh, findings.SevCritical}
	for j := 0; j < nf; j++ {
		rep.Findings = append(rep.Findings, findings.Finding{
			Rule:     "synth",
			CWE:      cwePool[rng.Intn(len(cwePool))],
			File:     fmt.Sprintf("src/f%d.c", rng.Intn(4)),
			Line:     j + 1,
			Severity: sevPool[rng.Intn(len(sevPool))],
			Message:  "synthetic",
		})
	}
	run := NewRun(repo, "test", rep)
	run.Time = int64(1_700_000_000 + i*3600)
	if rng.Intn(3) > 0 {
		run = run.WithScore(rng.Float64())
	}
	return run
}

func TestAppendAssignsSeqAndPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "findex.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := &findings.Report{Findings: []findings.Finding{
		{Rule: "r", CWE: 121, File: "a.c", Line: 3, Severity: findings.SevHigh, Message: "m"},
		{Rule: "r", CWE: 121, File: "b.c", Line: 9, Severity: findings.SevMedium, Message: "m"},
	}}
	run := NewRun("app", "findings", rep).WithScore(0.75)
	run.Time = 1_700_000_000
	seq1, err := s.Append(run)
	if err != nil || seq1 != 1 {
		t.Fatalf("first append: seq=%d err=%v", seq1, err)
	}
	seq2, err := s.Append(run)
	if err != nil || seq2 != 2 {
		t.Fatalf("second append: seq=%d err=%v", seq2, err)
	}
	if last, err := s.LastSeq("app"); err != nil || last != 2 {
		t.Fatalf("LastSeq = %d, %v", last, err)
	}
	// Distinct repos get independent sequences.
	if seq, err := s.Append(NewRun("other", "findings", rep)); err != nil || seq != 1 {
		t.Fatalf("other repo seq = %d, %v", seq, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Get("app", 1)
	if err != nil || !ok {
		t.Fatalf("get after reopen: %v %v", ok, err)
	}
	if got.Total != 2 || got.MaxSeverity != findings.SevHigh || !got.HasScore || got.Score != 0.75 {
		t.Fatalf("run mangled across reopen: %+v", got)
	}
	if got.CountsByCWE[121] != 2 {
		t.Fatalf("cwe counts mangled: %v", got.CountsByCWE)
	}
	if _, ok, _ := s2.Get("app", 99); ok {
		t.Fatal("phantom run")
	}
}

func TestAppendValidation(t *testing.T) {
	s := openTemp(t)
	if _, err := s.Append(Run{}); err == nil {
		t.Fatal("empty repo accepted")
	}
	if _, err := s.Append(Run{Repo: "a\x00b"}); err == nil {
		t.Fatal("NUL repo accepted")
	}
	if _, err := s.Append(Run{Repo: strings.Repeat("r", 201)}); err == nil {
		t.Fatal("oversized repo accepted")
	}
}

func TestQueryBasics(t *testing.T) {
	s := openTemp(t)
	mk := func(repo string, tm int64, score float64, hasScore bool, fs ...findings.Finding) {
		t.Helper()
		rep := &findings.Report{Findings: fs}
		run := NewRun(repo, "test", rep)
		run.Time = tm
		if hasScore {
			run = run.WithScore(score)
		}
		if _, err := s.Append(run); err != nil {
			t.Fatal(err)
		}
	}
	f121 := findings.Finding{Rule: "r", CWE: 121, File: "src/a.c", Line: 1, Severity: findings.SevHigh}
	f78 := findings.Finding{Rule: "r", CWE: 78, File: "src/b.c", Line: 2, Severity: findings.SevCritical}
	fLow := findings.Finding{Rule: "r", CWE: 0, File: "src/c.c", Line: 3, Severity: findings.SevLow}
	mk("app1", 1000, 0.9, true, f121, f121, fLow)
	mk("app1", 2000, 0.2, true, fLow)
	mk("app2", 3000, 0.5, true, f78, f121)
	mk("app3", 4000, 0, false, fLow)

	type tc struct {
		src       string
		wantRepos []string
		wantIndex string
	}
	cases := []tc{
		{"cwe121 > 0", []string{"app1", "app2"}, "cwe121"},
		{"cwe121 > 1", []string{"app1"}, "cwe121"},
		{"severity >= critical", []string{"app2"}, "severity[critical..critical]"},
		{"severity >= high ORDER BY score DESC", []string{"app1", "app2"}, "severity[high..critical]"},
		{`file = "src/b.c"`, []string{"app2"}, `file("src/b.c")`},
		{"time >= 2000 AND time < 4000", []string{"app1", "app2"}, "time[2000,4000)"},
		{`repo = "app1"`, []string{"app1", "app1"}, `repo("app1")`},
		{"score > 0.4", []string{"app1", "app2"}, ""},
		{"score < 5", []string{"app1", "app1", "app2"}, ""}, // unscored app3 never matches score
		{"total = 0", nil, ""},
		{"cwe121 > 0 AND severity >= critical", []string{"app2"}, `file`}, // index choice checked loosely below
		{"NOT cwe121 > 0", []string{"app1", "app3"}, ""},                  // NOT blocks index use
		{"", []string{"app1", "app1", "app2", "app3"}, ""},
	}
	for _, c := range cases {
		runs, ex, err := s.QueryString(c.src, Options{})
		if err != nil {
			t.Fatalf("query %q: %v", c.src, err)
		}
		var repos []string
		for _, r := range runs {
			repos = append(repos, r.Repo)
		}
		if fmt.Sprint(repos) != fmt.Sprint(c.wantRepos) {
			t.Errorf("query %q -> %v, want %v (explain: %s)", c.src, repos, c.wantRepos, ex)
		}
		if c.wantIndex == "" {
			if !ex.FullScan {
				t.Errorf("query %q used index %q, expected full scan", c.src, ex.Index)
			}
		} else if !strings.HasPrefix(ex.Index, strings.TrimSuffix(c.wantIndex, "...")) && !strings.Contains(ex.Index, "cwe121") {
			t.Errorf("query %q used %q, want %q", c.src, ex.Index, c.wantIndex)
		}
	}

	// ORDER BY + LIMIT shape.
	runs, _, err := s.QueryString("ORDER BY time DESC LIMIT 2", Options{})
	if err != nil || len(runs) != 2 || runs[0].Time != 4000 || runs[1].Time != 3000 {
		t.Fatalf("order/limit wrong: %v %v", runs, err)
	}
}

// TestIndexFullScanParity is the acceptance check: across randomized data
// and a battery of queries, the planned path must return byte-identical
// results to the forced full scan, and indexable predicates must actually
// use an index.
func TestIndexFullScanParity(t *testing.T) {
	s := openTemp(t)
	rng := rand.New(rand.NewSource(99))
	repos := []string{"app-a", "app-b", "app-c"}
	for i := 0; i < 120; i++ {
		if _, err := s.Append(synthRun(rng, repos[rng.Intn(len(repos))], i)); err != nil {
			t.Fatal(err)
		}
	}
	// A finding with no file name: the row records it, the file index
	// cannot, so file = "" must not be answered from that index.
	noFile := NewRun("app-b", "test", &findings.Report{Findings: []findings.Finding{
		{Rule: "synth", CWE: 121, Line: 1, Severity: findings.SevHigh, Message: "synthetic"},
	}})
	noFile.Time = 1_700_500_000
	if _, err := s.Append(noFile); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		src       string
		wantIndex bool
	}{
		{"cwe121 > 0", true},
		{"cwe121 >= 2 ORDER BY cwe121 DESC", true},
		{"cwe119 = 1", true},
		{"severity >= high", true},
		{"severity = medium ORDER BY time ASC", true},
		{"severity > low LIMIT 7", true},
		{`file = "src/f1.c"`, true},
		{`file = "src/f1.c" AND cwe121 > 0`, true},
		{"time >= 1700003600 AND time < 1700100000", true},
		{`repo = "app-b"`, true},
		{`repo = "app-b" AND score > 0.5 ORDER BY score DESC LIMIT 5`, true},
		{"cwe121 > 0 OR cwe78 > 0", false}, // OR blocks the planner
		{"NOT severity >= high", false},
		{"score > 0.3 ORDER BY score DESC", false},
		{"total >= 3", false},
		{"cwe121 < 2", false}, // not presence-implying
		{"severity <= low", false},
		{"", false},
		{"cwe121 > 0 AND severity >= high AND time >= 1700000000 ORDER BY score DESC LIMIT 10", true},
		{`file = ""`, false},
		{`file = "" AND repo = "app-b"`, true},
		// The routed shape: every fleet query pins one repo.
		{`repo = "app-b" AND cwe121 > 0 ORDER BY score DESC LIMIT 20`, true},
		{`repo = "app-c" AND cwe121 > 0 ORDER BY score DESC LIMIT 20`, true},
		{`repo = "app-a" AND severity >= high`, true},
		{`file = "src/f2.c" AND repo = "app-c"`, true},
		{`repo = "app-a" AND time >= 1700100000 AND time < 1700300000`, true},
		{`repo = "app-z" AND cwe121 > 0`, true},
		{`repo = "app-a" AND cwe78 > 0 AND repo = "app-c"`, true},
		{`cwe121 > 0 AND NOT repo = "app-a"`, true},
		{`(repo = "app-a" OR repo = "app-b") AND cwe121 > 0`, true},
	}
	for _, qc := range queries {
		planned, ex, err := s.QueryString(qc.src, Options{})
		if err != nil {
			t.Fatalf("query %q: %v", qc.src, err)
		}
		full, exFull, err := s.QueryString(qc.src, Options{ForceFullScan: true})
		if err != nil {
			t.Fatalf("full scan %q: %v", qc.src, err)
		}
		if !exFull.FullScan {
			t.Fatalf("ForceFullScan did not full-scan for %q", qc.src)
		}
		pj, _ := json.Marshal(planned)
		fj, _ := json.Marshal(full)
		if string(pj) != string(fj) {
			t.Errorf("parity violation for %q (plan %s):\n planned: %s\n full:    %s", qc.src, ex, pj, fj)
		}
		if qc.wantIndex && ex.FullScan {
			t.Errorf("query %q expected an index, got full scan", qc.src)
		}
		if !qc.wantIndex && !ex.FullScan {
			t.Errorf("query %q expected full scan, used index %q", qc.src, ex.Index)
		}
	}
}

func TestExplainCounters(t *testing.T) {
	s := openTemp(t)
	rep := &findings.Report{Findings: []findings.Finding{
		{Rule: "r", CWE: 121, File: "a.c", Severity: findings.SevHigh},
	}}
	for i := 0; i < 10; i++ {
		run := NewRun("app", "t", rep)
		run.Time = int64(1000 + i)
		if _, err := s.Append(run); err != nil {
			t.Fatal(err)
		}
	}
	empty := NewRun("app", "t", &findings.Report{})
	empty.Time = 2000
	if _, err := s.Append(empty); err != nil {
		t.Fatal(err)
	}
	_, ex, err := s.QueryString("cwe121 > 0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.FullScan || ex.Candidates != 10 || ex.Matched != 10 {
		t.Fatalf("index explain off: %+v", ex)
	}
	_, ex, err = s.QueryString("cwe121 > 0", Options{ForceFullScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.FullScan || ex.Candidates != 11 || ex.Matched != 10 {
		t.Fatalf("full-scan explain off: %+v", ex)
	}
	if got := ex.String(); !strings.Contains(got, "full scan") || !strings.Contains(got, "candidates=11") {
		t.Fatalf("explain string: %q", got)
	}

	// A second repo's runs share every index entry's prefix; a query that
	// pins one repo fetches only that repo's entries.
	for i := 0; i < 5; i++ {
		run := NewRun("other", "t", rep)
		run.Time = int64(3000 + i)
		if _, err := s.Append(run); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		src, index        string
		candidates, match int
	}{
		{"cwe121 > 0", "cwe121", 15, 15},
		{`repo = "app" AND cwe121 > 0`, `cwe121 repo("app")`, 10, 10},
		{`cwe121 > 0 AND repo = "other"`, `cwe121 repo("other")`, 5, 5},
		{`repo = "other" AND severity >= high`, `severity[high..critical] repo("other")`, 5, 5},
		{`file = "a.c" AND repo = "other"`, `file("a.c") repo("other")`, 5, 5},
		{`repo = "absent" AND cwe121 > 0`, `cwe121 repo("absent")`, 0, 0},
		{`repo = "app"`, `repo("app")`, 11, 11},
	} {
		_, ex, err := s.QueryString(c.src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.FullScan || ex.Index != c.index || ex.Candidates != c.candidates || ex.Matched != c.match {
			t.Errorf("%s: explain %+v, want index %q, %d candidates, %d matched", c.src, ex, c.index, c.candidates, c.match)
		}
	}
}

// BenchmarkGetLargeRun reads back recorded runs of about 25 KB each (a
// scored 16-file tree's findings), 200 of them appended and then reopened,
// so every row page is clean. A row spans several overflow pages, which the
// page cache does not keep once clean: each Get reads them from the page
// file. cached_pages reports what stays resident (the B+tree nodes) out of
// pages.
func BenchmarkGetLargeRun(b *testing.B) {
	const runs = 200
	path := filepath.Join(b.TempDir(), "findex.db")
	db, err := store.Open(path, store.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	s := OpenDB(db)
	rep := &findings.Report{}
	for i := 0; ; i++ {
		run := NewRun("repo", "score", rep)
		if raw, _ := json.Marshal(&run); len(raw) >= 25<<10 {
			break
		}
		rep.Findings = append(rep.Findings, findings.Finding{
			Rule:     "lint/unsafe-call",
			CWE:      676,
			File:     fmt.Sprintf("src/file%02d.mc", i%16),
			Line:     i + 1,
			Severity: findings.SevMedium,
			Message:  "call to unsafe API strcpy",
		})
	}
	for i := 0; i < runs; i++ {
		if _, err := s.Append(NewRun("repo", "score", rep).WithScore(float64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if db, err = store.Open(path, store.Options{NoSync: true}); err != nil {
		b.Fatal(err)
	}
	s = OpenDB(db)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, ok, err := s.Get("repo", uint64(i%runs)+1)
		if err != nil || !ok || len(run.Findings) != len(rep.Findings) {
			b.Fatalf("get %d: found=%v err=%v", i%runs+1, ok, err)
		}
	}
	b.StopTimer()
	st := db.Stats()
	b.ReportMetric(float64(st.CachedPages), "cached_pages")
	b.ReportMetric(float64(st.PageCount), "pages")
}
