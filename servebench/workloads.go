package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cwe"
	"repro/internal/findings"
	"repro/internal/stats"
	"repro/internal/store/findex"
	"repro/internal/trace"
	"repro/pkg/api"
	"repro/pkg/client"
)

// op is one entry of a client's request stream: what it sends at position
// i, fixed by the seed and independent of the deployment it goes to.
type op struct {
	kind    string // "score", "delta" or "query"
	version int    // tree version sent (score and delta)
	shard   int    // fleet_mixed: which of the client's two repos
}

// workload is one traffic mix through a freshly set-up deployment.
type workload struct {
	name  string
	why   string
	repos []repoKey // the seeded repositories it sends
	plan  func(fx *fixtures, c, i int) op
	// setup boots the deployment and primes it; the timed set-up ends with
	// warmupOps planned ops per client.
	setup func(ctx context.Context, w *workload, fx *fixtures) (*target, error)
	// call builds the request for planned op i of client c.
	call func(t *target, c, i int, traced bool) call
}

// call is one request ready to go: send is the timed client call, check
// verifies the answer afterwards and returns the daemon's trace summary
// (nil when the request was not traced).
type call struct {
	kind  string
	send  func(ctx context.Context) error
	check func() (*trace.Summary, error)
}

// target is a deployment set up for one workload, with the clients'
// positions in their request streams and per-workload state.
type target struct {
	*deployment
	w    *workload
	fx   *fixtures
	cl   *client.Client
	next [clients]int // index of each client's next planned op

	dials atomic.Int64 // connections the client opened

	seq   [clients]uint64    // delta_edit: Seq of each client's session
	repos [clients][2]string // fleet_mixed: client c's repo on shard j

	mu      sync.Mutex
	recheck []func() error // score_cold answers checked after the window
}

// repo is the i-th seeded repository the target's workload sends.
func (t *target) repo(i int) *seededRepo { return t.fx.repos[t.w.repos[i]] }

func (t *target) close() {
	t.cl.HTTP.CloseIdleConnections()
	t.deployment.close()
}

// do sends client c's next planned op and checks the answer.
func (t *target) do(ctx context.Context, c int, traced bool) sample {
	i := t.next[c]
	t.next[c]++
	cl := t.w.call(t, c, i, traced)
	t0 := time.Now()
	err := cl.send(ctx)
	s := sample{kind: cl.kind, traced: traced, rtt: time.Since(t0)}
	if err == nil {
		s.phases, err = cl.check()
	}
	if err == nil && traced && cl.kind != "query" && s.phases == nil {
		err = errors.New("traced response carries no trace summary")
	}
	s.err = err
	return s
}

// warmup sends each client's next n planned ops; any failure fails set-up.
func (t *target) warmup(ctx context.Context, n int) error {
	return parallel(clients, func(c int) error {
		for k := 0; k < n; k++ {
			if s := t.do(ctx, c, false); s.err != nil {
				return fmt.Errorf("warm-up: %w", s.err)
			}
		}
		return nil
	})
}

func newTarget(w *workload, fx *fixtures, dp *deployment) *target {
	t := &target{deployment: dp, w: w, fx: fx}
	t.cl = newClient(dp.front, &t.dials)
	return t
}

// The workloads. Each one exercises a layer the others bypass; README.md
// gives the predictions per layer.
var workloads = []*workload{
	{
		name:  "score_warm",
		why:   "steady-state CI gate: /v1/score of one repository's commits whose files are all cached, so per-request work dominates",
		repos: []repoKey{{}},
		plan:  func(fx *fixtures, c, i int) op { return op{kind: "score", version: i % fx.sc.versions} },
		setup: func(ctx context.Context, w *workload, fx *fixtures) (*target, error) {
			dp, err := soloDeployment(fx)
			if err != nil {
				return nil, err
			}
			t := newTarget(w, fx, dp)
			for k := range t.repo(0).versions {
				if _, err := t.cl.Score(ctx, api.ScoreRequest{Tree: t.repo(0).tree(k, fmt.Sprintf("prime-%d", k))}); err != nil {
					t.close()
					return nil, fmt.Errorf("prime: %w", err)
				}
			}
			return t, nil
		},
		call: func(t *target, c, i int, traced bool) call {
			o := t.w.plan(t.fx, c, i)
			name := fmt.Sprintf("warm-c%d-%d", c, i)
			return t.score(t.repo(0).tree(o.version, name), traced, t.repo(0).refs[o.version])
		},
	},
	{
		name: "score_cold",
		why:  "first scan: /v1/score of a fresh tree on every request, so every featcache lookup misses and deep analysis does the work",
		plan: func(fx *fixtures, c, i int) op { return op{kind: "score"} },
		setup: func(ctx context.Context, w *workload, fx *fixtures) (*target, error) {
			dp, err := soloDeployment(fx)
			if err != nil {
				return nil, err
			}
			return newTarget(w, fx, dp), nil
		},
		call: func(t *target, c, i int, traced bool) call {
			tree := coldTree(t.fx.seed, c, i, t.fx.sc)
			var resp *api.ScoreResponse
			return call{
				kind: "score",
				send: func(ctx context.Context) (err error) {
					resp, err = t.cl.Score(ctx, api.ScoreRequest{Tree: tree, Trace: traced})
					return err
				},
				check: func() (*trace.Summary, error) {
					got, err := reportJSON(resp.Report, tree.Name)
					if err != nil {
						return nil, err
					}
					if i%16 == 0 {
						// A reference costs a deep analysis; one answer in
						// 16 is checked after the window instead of in it.
						t.mu.Lock()
						t.recheck = append(t.recheck, func() error {
							fv := core.ExtractFeatures(toMetricsTree(tree))
							return sameJSON(got, t.fx.model.Score("", fv))
						})
						t.mu.Unlock()
					}
					return traceOf(resp.Diagnostics), nil
				},
			}
		},
	},
	{
		name:  "delta_edit",
		why:   "incremental per-change path: /v1/delta of one-file edits against a warm session, with small bodies and no deep analysis",
		repos: []repoKey{{}},
		plan:  func(fx *fixtures, c, i int) op { return op{kind: "delta", version: i % fx.sc.versions} },
		setup: func(ctx context.Context, w *workload, fx *fixtures) (*target, error) {
			dp, err := soloDeployment(fx)
			if err != nil {
				return nil, err
			}
			t := newTarget(w, fx, dp)
			for c := 0; c < clients; c++ {
				resp, err := t.cl.Delta(ctx, api.DeltaRequest{
					RepoID:    deltaRepo(c),
					Changeset: api.Changeset{Added: t.repo(0).base},
				})
				if err != nil {
					t.close()
					return nil, fmt.Errorf("seed session: %w", err)
				}
				t.seq[c] = resp.Seq
			}
			return t, nil
		},
		call: func(t *target, c, i int, traced bool) call {
			o := t.w.plan(t.fx, c, i)
			r := t.repo(0)
			req := api.DeltaRequest{
				RepoID: deltaRepo(c),
				Changeset: api.Changeset{Modified: []api.File{
					{Path: r.base[0].Path, Content: r.versions[o.version]},
				}},
				Trace: traced,
			}
			var resp *api.DeltaResponse
			return call{
				kind: "delta",
				send: func(ctx context.Context) (err error) {
					resp, err = t.cl.Delta(ctx, req)
					return err
				},
				check: func() (*trace.Summary, error) {
					want := t.seq[c] + 1
					t.seq[c] = resp.Seq
					if resp.Seq != want {
						return nil, fmt.Errorf("delta seq %d, want %d", resp.Seq, want)
					}
					got, err := reportJSON(resp.Report, fmt.Sprintf("%s@%d", req.RepoID, resp.Seq))
					if err != nil {
						return nil, err
					}
					if err := sameBytes(got, r.refs[o.version]); err != nil {
						return nil, err
					}
					return traceOf(resp.Diagnostics), nil
				},
			}
		},
	},
	{
		name: "fleet_mixed",
		why:  "router hop to two shards with findings history: 3 /v1/score (recorded) to 1 /v1/query, so history writes, reads and shard queueing work",
		// One repository per client and shard: the findings collection
		// each recorded score runs then averages over four trees, not one,
		// which narrows the spread between seeds.
		repos: []repoKey{{true, 0}, {true, 1}, {true, 2}, {true, 3}},
		plan: func(fx *fixtures, c, i int) op {
			x := subSeed(fx.seed, 5, uint64(c), uint64(i))
			o := op{kind: "score", version: i % fx.sc.versions, shard: int(x>>8) & 1}
			if x%4 == 0 {
				o.kind = "query"
			}
			return o
		},
		setup: setupFleet,
		call: func(t *target, c, i int, traced bool) call {
			o := t.w.plan(t.fx, c, i)
			repo := t.repos[c][o.shard]
			if o.kind == "score" {
				r := t.repo(fleetRepo(c, o.shard))
				return t.score(r.tree(o.version, repo), traced, r.refs[o.version])
			}
			var resp *api.QueryResponse
			return call{
				kind: "query",
				send: func(ctx context.Context) (err error) {
					resp, err = t.cl.Query(ctx, fleetQuery(repo))
					return err
				},
				check: func() (*trace.Summary, error) { return nil, checkQuery(resp, repo) },
			}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func deltaRepo(c int) string { return fmt.Sprintf("delta-c%d", c) }

// fleetRepo indexes the fleet workload's repos: client c's repo on shard j.
func fleetRepo(c, j int) int { return c*2 + j }

// score is a /v1/score call whose answer must equal the reference report.
func (t *target) score(tree api.Tree, traced bool, ref []byte) call {
	var resp *api.ScoreResponse
	return call{
		kind: "score",
		send: func(ctx context.Context) (err error) {
			resp, err = t.cl.Score(ctx, api.ScoreRequest{Tree: tree, Trace: traced})
			return err
		},
		check: func() (*trace.Summary, error) {
			got, err := reportJSON(resp.Report, tree.Name)
			if err != nil {
				return nil, err
			}
			if err := sameBytes(got, ref); err != nil {
				return nil, err
			}
			return traceOf(resp.Diagnostics), nil
		},
	}
}

func traceOf(d *core.AnalysisDiagnostics) *trace.Summary {
	if d == nil {
		return nil
	}
	return d.Trace
}

func sameBytes(got, want []byte) error {
	if string(got) != string(want) {
		return errors.New("report differs from the in-process reference")
	}
	return nil
}

func sameJSON(got []byte, want *core.Report) error {
	w, err := reportJSON(want, "")
	if err != nil {
		return err
	}
	return sameBytes(got, w)
}

func fleetQuery(repo string) api.QueryRequest {
	return api.QueryRequest{Query: fmt.Sprintf(`repo = %q AND cwe121 > 0 ORDER BY score DESC LIMIT 20`, repo)}
}

// checkQuery verifies a fleet query answer: every run satisfies the filter,
// scores never increase, LIMIT holds, and the pre-seeded history matches.
func checkQuery(resp *api.QueryResponse, repo string) error {
	if len(resp.Runs) == 0 || len(resp.Runs) > 20 {
		return fmt.Errorf("query returned %d runs, want 1..20", len(resp.Runs))
	}
	for k, r := range resp.Runs {
		if r.Repo != repo || r.CountsByCWE[121] <= 0 {
			return fmt.Errorf("query run %s/%d does not match the filter", r.Repo, r.Seq)
		}
		if k > 0 && r.Score > resp.Runs[k-1].Score {
			return fmt.Errorf("query runs not in score DESC order at %d", k)
		}
	}
	return nil
}

// setupFleet boots the fleet, picks two repositories per shard (one per
// client; the ring hashes ephemeral ports, so ownership is read from the
// router), then per shard in parallel pre-seeds the history and primes the
// feature cache with every version of its repositories.
func setupFleet(ctx context.Context, w *workload, fx *fixtures) (*target, error) {
	dp, err := fleetDeployment(fx)
	if err != nil {
		return nil, err
	}
	t := newTarget(w, fx, dp)
	owned := [2][]string{}
	for k := 0; len(owned[0]) < clients || len(owned[1]) < clients; k++ {
		if k == 64 {
			t.close()
			return nil, errors.New("router placed 64 candidate repos without filling both shards")
		}
		repo := fmt.Sprintf("repo-%d", k)
		j, err := dp.owner(ctx, t.cl, repo)
		if err != nil {
			t.close()
			return nil, err
		}
		if len(owned[j]) < clients {
			owned[j] = append(owned[j], repo)
		}
	}
	for j := range owned {
		for c := 0; c < clients; c++ {
			t.repos[c][j] = owned[j][c]
		}
	}
	err = parallel(len(dp.daemons), func(j int) error {
		if err := seedHistory(dp.daemons[j].history, owned[j], fx.sc.historyRuns, subSeed(fx.seed, 4, uint64(j))); err != nil {
			return err
		}
		for c := 0; c < clients; c++ {
			r := t.repo(fleetRepo(c, j))
			for k := range r.versions {
				if _, err := t.cl.Score(ctx, api.ScoreRequest{Tree: r.tree(k, owned[j][c])}); err != nil {
					return fmt.Errorf("prime: %w", err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// seedHistory appends n small synthetic runs spread over the given repos
// and 14 others, as a shard's earlier CI history.
func seedHistory(h *findex.Store, repos []string, n int, seed uint64) error {
	all := append([]string(nil), repos...)
	for k := 0; k < 14; k++ {
		all = append(all, fmt.Sprintf("hist-%02d", k))
	}
	rng := stats.NewRNG(seed)
	files := []string{"src/a.mc", "src/b.mc", "src/c.mc", "lib/d.mc"}
	cwes := []int{0, 78, 119, 121, 134, 369, 676}
	for i := 0; i < n; i++ {
		rep := &findings.Report{}
		for k, nf := 0, rng.Intn(6); k < nf; k++ {
			rep.Findings = append(rep.Findings, findings.Finding{
				Rule:     "seed",
				CWE:      cwe.ID(cwes[rng.Intn(len(cwes))]),
				File:     files[rng.Intn(len(files))],
				Line:     k + 1,
				Severity: findings.Severity(rng.Intn(5)),
				Message:  "seeded",
			})
		}
		run := findex.NewRun(all[i%len(all)], "seed", rep)
		run.Time = int64(1_700_000_000 + i*600)
		if rng.Bool(0.7) {
			run = run.WithScore(rng.Float64())
		}
		if _, err := h.Append(run); err != nil {
			return fmt.Errorf("seed history: %w", err)
		}
	}
	return nil
}

// streamDigest hashes what a workload sends for a seed: the repositories
// and the first n planned ops of every client, with their request bodies
// where the body does not depend on the deployment.
func streamDigest(w *workload, fx *fixtures, n int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(w.name)
	for _, key := range w.repos {
		r := fx.repos[key]
		_ = enc.Encode([]any{r.base, r.versions})
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			o := w.plan(fx, c, i)
			_ = enc.Encode([]any{c, i, o.kind, o.version, o.shard})
			if w.name == "score_cold" {
				_ = enc.Encode(coldTree(fx.seed, c, i, fx.sc))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
