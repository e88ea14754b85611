package router

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	secmetric "repro"
	"repro/pkg/api"
	"repro/pkg/client"
)

// fleetRepo is one repository of the differential sequence, as the test's
// client sees it.
type fleetRepo struct {
	name  string
	files map[string]string // the tree as it stands
	// seeded: the solo daemon holds this repo's delta session.
	seeded bool
	// session is the shard holding the fleet's delta session (-1: none),
	// and off the solo session's Seq minus the fleet session's: a re-seeded
	// fleet session counts from 1 again.
	session int
	off     uint64
	// acks names the shard that answered each recorded request (score or
	// rank), in order: the solo daemon's i-th run of the repo is the one
	// acks[i] recorded.
	acks []int
}

func (r *fleetRepo) tree() api.Tree {
	t := api.Tree{Name: r.name}
	for path, content := range r.files {
		t.Files = append(t.Files, api.File{Path: path, Content: content})
	}
	sort.Slice(t.Files, func(i, j int) bool { return t.Files[i].Path < t.Files[j].Path })
	return t
}

// deltaView is what a delta answer must agree on across the two sides;
// elapsed time and diagnostics (cache hits) legitimately differ.
type deltaView struct {
	Seq        uint64
	Files      int
	Report     *secmetric.Report
	Comparison *secmetric.Comparison
}

// shifted is the solo answer as a fleet session that counts off fewer
// changesets reports it: Seq and the subjects that carry it move back.
func shifted(d *api.DeltaResponse, off uint64) deltaView {
	v := deltaView{Seq: d.Seq - off, Files: d.Files}
	rep := *d.Report
	rep.Name = fmt.Sprintf("%s@%d", d.RepoID, v.Seq)
	v.Report = &rep
	if d.Comparison != nil {
		cmp := *d.Comparison
		cmp.OldName, cmp.NewName = fmt.Sprintf("%s@%d", d.RepoID, v.Seq-1), rep.Name
		v.Comparison = &cmp
	}
	return v
}

// TestFleetSurvivesShardLoss is the differential test of the fleet's
// failure semantics. A solo daemon and a 3-shard fleet behind the router
// get the same seeded random sequence of score, rank, delta and query
// requests. Mid-sequence one shard dies under load and later restarts from
// its files on its address. The answers that may differ, and how:
//
//   - score and rank: never; their bytes match the solo daemon's always.
//   - delta: a repo whose fleet session lived on a shard it no longer
//     reaches (the dead shard's, or the successor's once the shard is
//     back) answers 409 stale_session until the client re-seeds it, and
//     the re-seeded session counts from 1 again.
//   - query: a repo pinned query returns exactly the runs the answering
//     shard acknowledged, numbered by that shard. Every shard keeps a -db,
//     so a 404 no_history cannot occur.
//
// The router must eject the dead shard, fail its requests over to the ring
// successor, and re-admit it after one good probe. Requests parked on the
// shard when it dies had no answer yet, so each fails over: none fails and
// none answers wrong bytes.
func TestFleetSurvivesShardLoss(t *testing.T) {
	ctx := context.Background()
	solo := client.New(newShard(t).url())
	shards := make([]*shard, 3)
	urls := make([]string, len(shards))
	for i := range shards {
		shards[i] = newShard(t)
		urls[i] = shards[i].url()
	}
	// Probes run only when the test calls them, so the router's view
	// changes exactly where the test says.
	rt, ts := newTestRouter(t, Config{Backends: urls, HealthInterval: time.Hour})
	fl := client.New(ts.URL)

	const victim = 1
	down := make([]bool, len(shards))
	home := func(key string) (b int) {
		b = -1
		rt.ring.walk(key, func(i int) bool {
			if down[i] {
				return false
			}
			b = i
			return true
		})
		return b
	}
	probeAll := func() {
		for _, b := range rt.backends {
			rt.probeOnce(b)
		}
	}
	checkHealth := func(when string) {
		t.Helper()
		var h api.RouterHealth
		if err := getJSON(ts.URL+"/healthz", &h); err != nil {
			t.Fatal(err)
		}
		for i, b := range h.Backends {
			if b.Healthy == down[i] {
				t.Fatalf("%s: router reports backend %d healthy=%v, want %v", when, i, b.Healthy, !down[i])
			}
		}
	}

	// Repos: enough that the victim homes at least two histories and two
	// sessions, and other shards at least two histories.
	base, err := client.TreeFromDir("../../examples/vulnapp")
	if err != nil {
		t.Fatal(err)
	}
	var repos []*fleetRepo
	var onVictim, offVictim, sessOnVictim int
	var victimRepo *fleetRepo // the first repo whose history the victim keeps
	for i := 0; len(repos) < 6 || onVictim < 2 || offVictim < 2 || sessOnVictim < 2; i++ {
		if i == 500 {
			t.Fatal("no repo names spread over the ring as needed")
		}
		name := fmt.Sprintf("repo-%d", i)
		if home("tree:"+name) == victim {
			onVictim++
		} else {
			offVictim++
		}
		if home("repo:"+name) == victim {
			sessOnVictim++
		}
		r := &fleetRepo{name: name, session: -1, files: map[string]string{
			"util.c": fmt.Sprintf("int util(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s + %d; }\n", i),
		}}
		for _, f := range base.Files {
			r.files[f.Path] = f.Content
		}
		if victimRepo == nil && home("tree:"+name) == victim {
			victimRepo = r
		}
		repos = append(repos, r)
	}

	canon := func(v any) string { return canonJSON(t, v) }
	var lost [3]int // changesets that met a lost session, per phase
	phase := 0
	rng := rand.New(rand.NewSource(0x5eed))
	step := 0

	score := func(r *fleetRepo) {
		t.Helper()
		req := api.ScoreRequest{Tree: r.tree()}
		s, err := solo.Score(ctx, req)
		if err != nil {
			t.Fatalf("solo score %s: %v", r.name, err)
		}
		f, err := fl.Score(ctx, req)
		if err != nil {
			t.Fatalf("phase %d: fleet score %s: %v", phase, r.name, err)
		}
		if canon(f.Report) != canon(s.Report) {
			t.Fatalf("phase %d: fleet score of %s differs from solo", phase, r.name)
		}
		r.acks = append(r.acks, home("tree:"+r.name))
	}
	rank := func(r *fleetRepo) {
		t.Helper()
		req := api.RankRequest{Tree: r.tree()}
		s, err := solo.Rank(ctx, req)
		if err != nil {
			t.Fatalf("solo rank %s: %v", r.name, err)
		}
		f, err := fl.Rank(ctx, req)
		if err != nil {
			t.Fatalf("phase %d: fleet rank %s: %v", phase, r.name, err)
		}
		if canon(f.Ranking) != canon(s.Ranking) {
			t.Fatalf("phase %d: fleet ranking of %s differs from solo", phase, r.name)
		}
		r.acks = append(r.acks, home("tree:"+r.name))
	}
	delta := func(r *fleetRepo) {
		t.Helper()
		var cs api.Changeset
		var extras, paths []string
		for p := range r.files {
			paths = append(paths, p)
			if p != "util.c" && p != "vulnapp.mc" {
				extras = append(extras, p)
			}
		}
		sort.Strings(paths)
		sort.Strings(extras)
		switch kind := rng.Intn(3); {
		case !r.seeded:
			cs.Added = r.tree().Files
		case kind == 1:
			p := fmt.Sprintf("extra%d.c", step)
			r.files[p] = fmt.Sprintf("int extra%d(int x) { return x * %d; }\n", step, rng.Intn(9))
			cs.Added = []api.File{{Path: p, Content: r.files[p]}}
		case kind == 2 && len(extras) > 0:
			p := extras[rng.Intn(len(extras))]
			delete(r.files, p)
			cs.Removed = []string{p}
		default:
			p := paths[rng.Intn(len(paths))]
			r.files[p] += fmt.Sprintf("\nint edit%d(int x) { if (x > %d) { return x; } return 0; }\n", step, rng.Intn(100))
			cs.Modified = []api.File{{Path: p, Content: r.files[p]}}
		}
		req := api.DeltaRequest{RepoID: r.name, Changeset: cs}
		s, err := solo.Delta(ctx, req)
		if err != nil {
			t.Fatalf("solo delta %s: %v", r.name, err)
		}
		seeding := !r.seeded
		r.seeded = true
		at := home("repo:" + r.name)
		view := func(f *api.DeltaResponse) deltaView { return deltaView{f.Seq, f.Files, f.Report, f.Comparison} }
		switch {
		case seeding || r.session == at:
			if seeding {
				r.session, r.off = at, 0
			}
			f, err := fl.Delta(ctx, req)
			if err != nil {
				t.Fatalf("phase %d: fleet delta %s: %v", phase, r.name, err)
			}
			if got, want := view(f), shifted(s, r.off); canon(got) != canon(want) {
				t.Fatalf("phase %d: fleet delta %s answers %s, want %s", phase, r.name, canon(got), canon(want))
			}
		case len(cs.Modified)+len(cs.Removed) > 0:
			// The session is gone: a changeset naming a file it should
			// hold is refused, and the client re-seeds the whole tree.
			if _, err := fl.Delta(ctx, req); !client.IsStaleSession(err) {
				t.Fatalf("phase %d: delta on %s, whose session shard %d no longer answers: %v, want 409 stale_session", phase, r.name, r.session, err)
			}
			lost[phase]++
			req.Changeset = api.Changeset{Added: r.tree().Files}
			r.session, r.off = at, s.Seq-1
			f, err := fl.Delta(ctx, req)
			if err != nil {
				t.Fatalf("phase %d: re-seeding %s: %v", phase, r.name, err)
			}
			want := shifted(s, r.off)
			want.Comparison = nil // a seed has nothing to compare against
			if got := view(f); canon(got) != canon(want) {
				t.Fatalf("phase %d: re-seeded %s answers %s, want %s", phase, r.name, canon(got), canon(want))
			}
		default:
			// The session is gone and the changeset only adds files, which
			// is a seed's shape: a fresh session takes the added files as
			// the whole tree and answers Seq 1, so it scores as that tree
			// alone would. The Seq tells the client its session was
			// rebuilt; it adds the files the new session lacks. The solo
			// daemon's score and compare that state the expected answers
			// record runs under names no query reads.
			lost[phase]++
			f, err := fl.Delta(ctx, req)
			if err != nil {
				t.Fatalf("phase %d: add-only delta on %s's lost session: %v", phase, r.name, err)
			}
			partial := api.Tree{Name: fmt.Sprintf("%s@1", r.name), Files: cs.Added}
			ps, err := solo.Score(ctx, api.ScoreRequest{Tree: partial})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := view(f), (deltaView{Seq: 1, Files: len(cs.Added), Report: ps.Report}); canon(got) != canon(want) {
				t.Fatalf("phase %d: add-only delta on %s's lost session answers %s, want a seed of the added files %s", phase, r.name, canon(got), canon(want))
			}
			full := r.tree()
			req.Changeset = api.Changeset{}
			for _, file := range full.Files {
				if !slices.ContainsFunc(cs.Added, func(a api.File) bool { return a.Path == file.Path }) {
					req.Changeset.Added = append(req.Changeset.Added, file)
				}
			}
			r.session, r.off = at, s.Seq-2
			if f, err = fl.Delta(ctx, req); err != nil {
				t.Fatalf("phase %d: completing %s's rebuilt session: %v", phase, r.name, err)
			}
			full.Name = fmt.Sprintf("%s@2", r.name)
			pc, err := solo.Compare(ctx, api.CompareRequest{Old: partial, New: full})
			if err != nil {
				t.Fatal(err)
			}
			want := shifted(s, r.off)
			want.Comparison = pc.Comparison
			if got := view(f); canon(got) != canon(want) {
				t.Fatalf("phase %d: completed %s answers %s, want %s", phase, r.name, canon(got), canon(want))
			}
		}
	}
	query := func(r *fleetRepo) {
		t.Helper()
		req := api.QueryRequest{Query: fmt.Sprintf("repo = %q", r.name)}
		s, err := solo.Query(ctx, req)
		if err != nil {
			t.Fatalf("solo query %s: %v", r.name, err)
		}
		f, err := fl.Query(ctx, req)
		if err != nil {
			t.Fatalf("phase %d: fleet query %s: %v", phase, r.name, err)
		}
		if len(s.Runs) != len(r.acks) {
			t.Fatalf("solo recorded %d runs of %s, want %d", len(s.Runs), r.name, len(r.acks))
		}
		at := home("tree:" + r.name)
		want := []secmetric.HistoryRun{}
		for i, run := range s.Runs {
			if r.acks[i] == at {
				run.Seq = uint64(len(want) + 1)
				want = append(want, run)
			}
		}
		if f.Runs == nil {
			f.Runs = []secmetric.HistoryRun{}
		}
		if canonRuns(t, f.Runs) != canonRuns(t, want) {
			t.Fatalf("phase %d: fleet query %s (shard %d) returned %d runs %s, want %s", phase, r.name, at, len(f.Runs), canonRuns(t, f.Runs), canonRuns(t, want))
		}
	}
	// run sends n random requests, then a delta, a score and a query for
	// every repo, so each phase reaches every repo's session and history.
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			step++
			r := repos[rng.Intn(len(repos))]
			[]func(*fleetRepo){score, rank, delta, query}[rng.Intn(4)](r)
		}
		for _, r := range repos {
			step++
			delta(r)
			score(r)
			query(r)
		}
	}

	run(12)

	// Phase 1: the victim dies under load. Four callers score repos it
	// homes; once each has a request parked on it, it dies.
	phase = 1
	var load []api.Tree
	for i := 0; len(load) < 4; i++ {
		if name := fmt.Sprintf("load-%d", i); home("tree:"+name) == victim {
			load = append(load, api.Tree{Name: name, Files: base.Files})
		}
	}
	reportBytes := func(r *secmetric.Report) string {
		b, _ := json.Marshal(r)
		return string(b)
	}
	want := make([]string, len(load))
	for i, tree := range load {
		s, err := solo.Score(ctx, api.ScoreRequest{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reportBytes(s.Report)
	}
	var mu sync.Mutex
	var answered int
	var failures []string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range load {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := fl.Score(ctx, api.ScoreRequest{Tree: load[i]})
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, err.Error())
				case reportBytes(resp.Report) != want[i]:
					failures = append(failures, load[i].Name+": wrong bytes")
				default:
					answered++
				}
				mu.Unlock()
			}
		}(i)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	answeredAtLeast := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return answered >= n
		}
	}
	waitFor("load answers before the kill", answeredAtLeast(8))
	shards[victim].holdRequests()
	waitFor("a request parked from every caller", func() bool { return shards[victim].heldRequests() >= len(load) })
	mu.Lock()
	before := answered
	mu.Unlock()
	shards[victim].kill()
	down[victim] = true
	waitFor("the parked requests and more answered after the kill", answeredAtLeast(before+len(load)+8))
	close(stop)
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d of %d load requests failed or answered wrong bytes around the kill: %v", len(failures), answered+len(failures), failures)
	}
	checkHealth("after the kill")
	probeAll()
	probeAll()
	checkHealth("after two probe rounds with the shard dead")

	run(12)

	// Phase 2: the victim restarts from its files on its address. The
	// router keeps it out until a probe succeeds: a run recorded before the
	// probe lands on the successor, which the queries below check.
	phase = 2
	shards[victim].start()
	score(victimRepo)
	checkHealth("after the restart, before a probe")
	probeAll()
	down[victim] = false
	checkHealth("after a probe of the restarted shard")

	run(12)

	if lost[1] == 0 || lost[2] == 0 {
		t.Fatalf("changesets that met a lost session per phase %v: the sequence never reached one in the outage or after the restart", lost)
	}
	t.Logf("load: %d answers around the kill; changesets that met a lost session per phase: %v", answered, lost)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
