package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	secmetric "repro"
	"repro/internal/server"
	"repro/internal/store/findex"
	"repro/pkg/api"
	"repro/pkg/client"
)

var (
	modelOnce sync.Once
	model     *secmetric.Model
	modelErr  error
)

func testModel(t *testing.T) *secmetric.Model {
	t.Helper()
	modelOnce.Do(func() {
		c, err := secmetric.DefaultCorpus()
		if err != nil {
			modelErr = err
			return
		}
		model, modelErr = secmetric.Train(c, secmetric.TrainConfig{Kind: secmetric.KindLogistic, Folds: 2, Seed: 5})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

// startDaemon serves one in-process secmetricd recording into its own
// findings history, as a shard started with -db does.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	reg := server.NewRegistry("", nil)
	reg.Register("default", testModel(t))
	hist, err := findex.Open(filepath.Join(t.TempDir(), "findings.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hist.Close() })
	ts := httptest.NewServer(server.New(reg, server.Config{Workers: 2, QueueDepth: 16, History: hist}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// fleet starts n daemon shards behind a router and returns a client of the
// router plus the shard URLs.
func fleet(t *testing.T, n int) (*client.Client, []string) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = startDaemon(t).URL
	}
	_, ts := newTestRouter(t, Config{Backends: urls, HealthInterval: time.Hour})
	return client.New(ts.URL), urls
}

func canonJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var x any
	if err := json.Unmarshal(raw, &x); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(x, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// canonRuns canonicalizes query runs for cross-daemon comparison: each
// daemon stamps runs with its own clock, so the time field is dropped and
// everything else must match.
func canonRuns(t *testing.T, runs []secmetric.HistoryRun) string {
	t.Helper()
	raw, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		delete(r, "time")
	}
	return canonJSON(t, rows)
}

// TestFleetMatchesSolo holds a 3-shard fleet behind the router to a solo
// daemon's bytes for score, rank, delta, and (time-normalized) query, and
// checks the 409 stale-session signal and the refusal of an unrouteable
// query cross the router.
func TestFleetMatchesSolo(t *testing.T) {
	ctx := context.Background()
	solo := client.New(startDaemon(t).URL)
	fl, _ := fleet(t, 3)
	base, err := client.TreeFromDir("../../examples/vulnapp")
	if err != nil {
		t.Fatal(err)
	}
	named := func(name string) api.Tree { return api.Tree{Name: name, Files: base.Files} }

	// Enough distinct repos to involve every shard.
	for i := 0; i < 12; i++ {
		tree := named(fmt.Sprintf("fleet-%d", i))
		f, err := fl.Score(ctx, api.ScoreRequest{Tree: tree})
		if err != nil {
			t.Fatalf("fleet score %s: %v", tree.Name, err)
		}
		s, err := solo.Score(ctx, api.ScoreRequest{Tree: tree})
		if err != nil {
			t.Fatalf("solo score %s: %v", tree.Name, err)
		}
		if canonJSON(t, f.Report) != canonJSON(t, s.Report) {
			t.Fatalf("score %s: fleet report differs from solo", tree.Name)
		}
	}

	fr, err := fl.Rank(ctx, api.RankRequest{Tree: named("fleet-rank")})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := solo.Rank(ctx, api.RankRequest{Tree: named("fleet-rank")})
	if err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, fr.Ranking) != canonJSON(t, sr.Ranking) {
		t.Fatal("fleet ranking differs from solo")
	}

	const repo = "fleet-delta-repo"
	if _, err := fl.Delta(ctx, api.DeltaRequest{RepoID: repo, Changeset: api.Changeset{
		Modified: base.Files[:1],
	}}); !client.IsStaleSession(err) {
		t.Fatalf("unseeded modify through the router: %v, want 409 stale_session", err)
	}
	edited := base.Files[0]
	edited.Content += "\nint fleet_edit(int x) { if (x > 7) { return x; } return 0; }\n"
	for _, cs := range []api.Changeset{{Added: base.Files}, {Modified: []api.File{edited}}} {
		f, err := fl.Delta(ctx, api.DeltaRequest{RepoID: repo, Changeset: cs})
		if err != nil {
			t.Fatalf("fleet delta: %v", err)
		}
		s, err := solo.Delta(ctx, api.DeltaRequest{RepoID: repo, Changeset: cs})
		if err != nil {
			t.Fatalf("solo delta: %v", err)
		}
		if f.Seq != s.Seq || canonJSON(t, f.Report) != canonJSON(t, s.Report) || canonJSON(t, f.Comparison) != canonJSON(t, s.Comparison) {
			t.Fatalf("delta seq %d: fleet answer differs from solo", s.Seq)
		}
	}

	// The scores above were recorded shard-local; a repo-filtered query
	// converges on the owning shard and answers what the solo daemon's
	// all-in-one history answers. The second shape is the one servebench's
	// fleet workload sends, which both sides answer from a narrowed index.
	for _, name := range []string{"fleet-0", "fleet-7", "fleet-rank"} {
		for _, src := range []string{
			fmt.Sprintf("repo = %q", name),
			fmt.Sprintf("repo = %q AND cwe121 > 0 ORDER BY score DESC LIMIT 20", name),
		} {
			q := api.QueryRequest{Query: src}
			f, err := fl.Query(ctx, q)
			if err != nil {
				t.Fatalf("fleet query %s: %v", src, err)
			}
			s, err := solo.Query(ctx, q)
			if err != nil {
				t.Fatalf("solo query %s: %v", src, err)
			}
			if len(f.Runs) != 1 || canonRuns(t, f.Runs) != canonRuns(t, s.Runs) {
				t.Fatalf("query %s: fleet runs %+v, solo runs %+v", src, f.Runs, s.Runs)
			}
		}
	}
	if _, err := fl.Query(ctx, api.QueryRequest{Query: "score > 0"}); err == nil || !strings.Contains(err.Error(), "needs a repo") {
		t.Fatalf("query without a repo filter through the router: %v, want a 400 naming the missing filter", err)
	}
}

// TestUnnamedTreeHistoryFollowsItsShard: a tree sent without a name is
// recorded under the subject "tree", so the router must place it where a
// later repo = "tree" query looks. The shards are chosen so that a key of
// "tree:" (the empty name) and "tree:tree" have different homes.
func TestUnnamedTreeHistoryFollowsItsShard(t *testing.T) {
	ctx := context.Background()
	var urls []string
	for attempt := 0; ; attempt++ {
		urls = []string{startDaemon(t).URL, startDaemon(t).URL}
		r := buildRing(urls)
		home := func(key string) (b int) {
			r.walk(key, func(i int) bool { b = i; return true })
			return b
		}
		if home("tree:") != home("tree:tree") {
			break
		}
		if attempt == 20 {
			t.Fatal("no shard pair separates the empty name from its subject")
		}
	}
	_, ts := newTestRouter(t, Config{Backends: urls, HealthInterval: time.Hour})
	fl := client.New(ts.URL)

	base, err := client.TreeFromDir("../../examples/vulnapp")
	if err != nil {
		t.Fatal(err)
	}
	unnamed := api.Tree{Files: base.Files}
	if _, err := fl.Score(ctx, api.ScoreRequest{Tree: unnamed}); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Compare(ctx, api.CompareRequest{Old: api.Tree{Name: "old", Files: base.Files}, New: unnamed}); err != nil {
		t.Fatal(err)
	}
	got, err := fl.Query(ctx, api.QueryRequest{Query: `repo = "tree"`})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 {
		t.Fatalf(`repo = "tree" found %d runs through the router, want the score and the compare: %+v`, len(got.Runs), got.Runs)
	}
}
