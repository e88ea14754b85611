package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
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

// shard is one in-process secmetricd backend recording into its own -db
// files. kill stops it the way SIGKILL looks from outside, and start,
// called again, brings it back from the same files on the same address.
type shard struct {
	t      *testing.T
	addr   string
	dbPath string
	hs     *http.Server
	hist   *findex.Store
	dead   bool

	mu      sync.Mutex
	handler http.Handler
	hold    bool          // park new analysis requests until the kill
	held    int           // requests parked since hold was set
	killed  chan struct{} // closed by kill
}

func newShard(t *testing.T) *shard {
	s := &shard{t: t, addr: "127.0.0.1:0", dbPath: filepath.Join(t.TempDir(), "findings.db")}
	s.start()
	t.Cleanup(func() {
		if !s.dead {
			s.hs.Close()
			s.hist.Close()
		}
	})
	return s
}

func (s *shard) url() string { return "http://" + s.addr }

// start opens the store (replaying its log after a kill) and serves a
// fresh daemon on s.addr: a restarted process keeps its files and its
// address, and nothing held in memory.
func (s *shard) start() {
	s.t.Helper()
	// A restart binds the address its killed listener held; retry briefly
	// in case the port is not free again yet.
	var ln net.Listener
	var err error
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if ln, err = net.Listen("tcp", s.addr); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		s.t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	if s.hist, err = findex.Open(s.dbPath); err != nil {
		s.t.Fatal(err)
	}
	reg := server.NewRegistry("", nil)
	reg.Register("default", testModel(s.t))
	s.mu.Lock()
	s.handler = server.New(reg, server.Config{Workers: 2, QueueDepth: 16, History: s.hist}).Handler()
	s.hold, s.held, s.killed = false, 0, make(chan struct{})
	s.mu.Unlock()
	s.hs = &http.Server{Handler: s}
	s.dead = false
	go s.hs.Serve(ln)
}

func (s *shard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h, park, killed := s.handler, s.hold && r.Method == http.MethodPost, s.killed
	if park {
		s.held++
	}
	s.mu.Unlock()
	if park {
		// The request was received and is never answered: the process
		// dies holding it.
		<-killed
		panic(http.ErrAbortHandler)
	}
	h.ServeHTTP(w, r)
}

// holdRequests parks every analysis request that arrives from now on, and
// heldRequests counts them.
func (s *shard) holdRequests() {
	s.mu.Lock()
	s.hold = true
	s.mu.Unlock()
}

func (s *shard) heldRequests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// kill closes the listener and every client connection at once, so
// requests in flight get no answer, and abandons the store without its
// closing checkpoint: only what it committed survives.
func (s *shard) kill() {
	s.t.Helper()
	s.hs.Close()
	close(s.killed)
	if err := s.hist.DB().Abandon(); err != nil {
		s.t.Fatal(err)
	}
	s.dead = true
}

// fleet starts n daemon shards behind a router and returns a client of the
// router plus the shard URLs.
func fleet(t *testing.T, n int) (*client.Client, []string) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = newShard(t).url()
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
	solo := client.New(newShard(t).url())
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
		urls = []string{newShard(t).url(), newShard(t).url()}
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
