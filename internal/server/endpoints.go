package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	secmetric "repro"
	"repro/internal/core"
	"repro/internal/findings"
	"repro/internal/metrics"
	"repro/internal/store/findex"
	"repro/internal/store/query"
	"repro/internal/trace"
	"repro/pkg/api"
)

// endpoint declares one analysis endpoint. The server derives the rest
// from the declaration: body decode under the size cap, admission and
// deadline, history recording, the trace summary, JSON or NDJSON writing,
// and mux registration. The shard router routes the same api.Route.
type endpoint[Req api.Keyed, Resp any] struct {
	route api.Route[Req]
	// label names the endpoint in /metrics and in recorded history runs.
	label string
	// prepare validates the request and resolves its inputs before
	// admission, so a malformed request costs no worker slot. A *reqError
	// it returns keeps its status and code.
	prepare func(s *Server, req *Req) (prepared, error)
	// work runs inside the worker slot. onFile is nil on the batch route;
	// on the stream route it sends one per-file record.
	work func(ctx context.Context, s *Server, req *Req, p prepared, onFile func(api.StreamFile)) (*Resp, error)
	// diag, when set, returns the diagnostics a traced request's span
	// summary joins.
	diag func(*Resp) *secmetric.AnalysisDiagnostics
	// record, when set, records p.tree into the findings history with the
	// score it returns (hasScore false records an unscored run).
	record func(*Resp) (score float64, hasScore bool)
	// stream, when set, also serves the work as an NDJSON stream.
	stream *framing[Req, Resp]
}

// framing serves an endpoint's work as NDJSON on a second route: per-file
// records as the work finishes each file (arrival order is scheduling
// order), then one summary record carrying exactly the batch response.
type framing[Req api.Keyed, Resp any] struct {
	route   api.Route[Req]
	label   string
	summary func(*Resp) api.StreamRecord
}

// prepared is what an endpoint's prepare step resolves from its request;
// each endpoint fills the fields its work reads.
type prepared struct {
	timeoutMS int64
	trace     bool
	// tree is the tree analyzed (compare: the new version) and the tree a
	// recording endpoint records.
	tree      *metrics.Tree
	old       *metrics.Tree
	model     *secmetric.Model
	modelName string
	sev       findings.Severity
	query     *query.Query
	changeset core.Changeset
}

// mounter is an endpoint of any request and response type.
type mounter interface {
	mount(s *Server, mux *http.ServeMux)
}

func (e *endpoint[Req, Resp]) mount(s *Server, mux *http.ServeMux) {
	mux.HandleFunc("POST "+e.route.Path, s.instrument(e.label, func(w http.ResponseWriter, r *http.Request) {
		e.serve(s, w, r, e.label, false)
	}))
	if e.stream != nil {
		mux.HandleFunc("POST "+e.stream.route.Path, s.instrument(e.stream.label, func(w http.ResponseWriter, r *http.Request) {
			e.serve(s, w, r, e.stream.label, true)
		}))
	}
}

// serve answers one request on the batch route, or on the stream route.
// Rejections before admission (400, 404, 413) and at admission (429, 504)
// are plain JSON on both; once a stream has started, a failure can only
// arrive as its trailing error record.
func (e *endpoint[Req, Resp]) serve(s *Server, w http.ResponseWriter, r *http.Request, label string, stream bool) {
	var req Req
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	p, err := e.prepare(s, &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.withSlot(w, r, label, p.timeoutMS, func(ctx context.Context) error {
		var sw *streamWriter
		var onFile func(api.StreamFile)
		if stream {
			sw = s.startStream(w)
			defer sw.end()
			onFile = func(f api.StreamFile) {
				sw.send(api.StreamRecord{Type: api.StreamTypeFile, File: &f})
			}
		}
		resp, err := e.work(ctx, s, &req, p, onFile)
		if err != nil {
			if stream {
				sw.sendError(err)
				return nil // answered on-stream; withSlot must not write again
			}
			return err
		}
		if e.record != nil {
			score, hasScore := e.record(resp)
			s.record(ctx, e.label, p.tree, score, hasScore)
		}
		if e.diag != nil && p.trace {
			if d := e.diag(resp); d != nil {
				d.Trace = trace.Summarize(trace.SpanFromContext(ctx))
			}
		}
		if stream {
			sw.send(e.stream.summary(resp))
		} else {
			s.writeJSON(w, http.StatusOK, resp)
		}
		return nil
	})
}

// treeOf converts a wire tree, answering 400 with prefix on failure.
func treeOf(t api.Tree, prefix string) (*metrics.Tree, error) {
	tree, err := toTree(t)
	if err != nil {
		return nil, badRequest(prefix + err.Error())
	}
	return tree, nil
}

// resolveModel resolves a model name against the current registry
// snapshot, answering 404 for an unknown name.
func (s *Server) resolveModel(p *prepared, name string) error {
	m, resolved, ok := s.reg.Snapshot().Get(name)
	if !ok {
		return &reqError{http.StatusNotFound, api.CodeUnknownModel, fmt.Sprintf("unknown model %q", name)}
	}
	p.model, p.modelName = m, resolved
	return nil
}

// endpoints is the daemon's analysis surface, one declaration per endpoint.
var endpoints = []mounter{
	&endpoint[api.ScoreRequest, api.ScoreResponse]{
		route: api.ScoreRoute,
		label: "score",
		prepare: func(s *Server, req *api.ScoreRequest) (p prepared, err error) {
			p = prepared{timeoutMS: req.TimeoutMS, trace: req.Trace}
			if p.tree, err = treeOf(req.Tree, ""); err == nil {
				err = s.resolveModel(&p, req.Model)
			}
			return p, err
		},
		work: func(ctx context.Context, s *Server, req *api.ScoreRequest, p prepared, _ func(api.StreamFile)) (*api.ScoreResponse, error) {
			fv, diag, err := s.analyze(ctx, p.tree, nil)
			if err != nil {
				return nil, err
			}
			sc := trace.SpanFromContext(ctx).Child("score")
			rep := p.model.Score(req.Tree.Name, fv)
			sc.End()
			return &api.ScoreResponse{Model: p.modelName, Report: rep, Diagnostics: diag}, nil
		},
		diag:   func(r *api.ScoreResponse) *secmetric.AnalysisDiagnostics { return r.Diagnostics },
		record: func(r *api.ScoreResponse) (float64, bool) { return r.Report.RiskScore, true },
	},
	&endpoint[api.AnalyzeRequest, api.AnalyzeResponse]{
		route: api.AnalyzeRoute,
		label: "analyze",
		prepare: func(s *Server, req *api.AnalyzeRequest) (p prepared, err error) {
			p = prepared{timeoutMS: req.TimeoutMS, trace: req.Trace}
			p.tree, err = treeOf(req.Tree, "")
			return p, err
		},
		work: func(ctx context.Context, s *Server, _ *api.AnalyzeRequest, p prepared, onFile func(api.StreamFile)) (*api.AnalyzeResponse, error) {
			var fileDone func(int, core.FileDiagnostic)
			if onFile != nil {
				fileDone = func(_ int, d core.FileDiagnostic) {
					onFile(api.StreamFile{Path: d.Path, Status: string(d.Status), Detail: d.Detail})
				}
			}
			fv, diag, err := s.analyze(ctx, p.tree, fileDone)
			if err != nil {
				return nil, err
			}
			return &api.AnalyzeResponse{Features: fv, Diagnostics: diag}, nil
		},
		diag: func(r *api.AnalyzeResponse) *secmetric.AnalysisDiagnostics { return r.Diagnostics },
		stream: &framing[api.AnalyzeRequest, api.AnalyzeResponse]{
			route: api.AnalyzeStreamRoute,
			label: "analyze_stream",
			summary: func(r *api.AnalyzeResponse) api.StreamRecord {
				return api.StreamRecord{Type: api.StreamTypeSummary, Analyze: r}
			},
		},
	},
	&endpoint[api.FindingsRequest, api.FindingsResponse]{
		route: api.FindingsRoute,
		label: "findings",
		prepare: func(s *Server, req *api.FindingsRequest) (p prepared, err error) {
			p = prepared{timeoutMS: req.TimeoutMS}
			if p.tree, err = treeOf(req.Tree, ""); err != nil {
				return p, err
			}
			if p.sev, err = findings.ParseSeverity(req.MinSeverity); err != nil {
				return p, badRequest(err.Error())
			}
			return p, nil
		},
		// Each file record carries that file's status and its
		// severity-filtered, sorted findings; the batch sort key (file,
		// line, rule, message) groups by file first, so the records
		// concatenated in path order are exactly the summary's report. A
		// degraded file's record names its status, and the stream then ends
		// in an error record, as the batch route answers an error.
		work: func(ctx context.Context, s *Server, _ *api.FindingsRequest, p prepared, onFile func(api.StreamFile)) (*api.FindingsResponse, error) {
			var fileDone func(int, core.FileDiagnostic, []findings.Finding)
			if onFile != nil {
				fileDone = func(_ int, d core.FileDiagnostic, kept []findings.Finding) {
					onFile(api.StreamFile{Path: d.Path, Status: string(d.Status), Detail: d.Detail, Findings: kept})
				}
			}
			cs := trace.SpanFromContext(ctx).Child("collect")
			rep, err := s.collect(ctx, p.tree, p.sev, fileDone)
			cs.End()
			if err != nil {
				return nil, err
			}
			return &api.FindingsResponse{Report: rep}, nil
		},
		stream: &framing[api.FindingsRequest, api.FindingsResponse]{
			route: api.FindingsStreamRoute,
			label: "findings_stream",
			summary: func(r *api.FindingsResponse) api.StreamRecord {
				return api.StreamRecord{Type: api.StreamTypeSummary, Findings: r}
			},
		},
	},
	&endpoint[api.CompareRequest, api.CompareResponse]{
		route: api.CompareRoute,
		label: "compare",
		prepare: func(s *Server, req *api.CompareRequest) (p prepared, err error) {
			p = prepared{timeoutMS: req.TimeoutMS, trace: req.Trace}
			if p.old, err = treeOf(req.Old, "old: "); err != nil {
				return p, err
			}
			if p.tree, err = treeOf(req.New, "new: "); err != nil {
				return p, err
			}
			return p, s.resolveModel(&p, req.Model)
		},
		// Both versions run inside one slot against the shared cache, so
		// only the files the change touched are deep-analyzed twice.
		work: func(ctx context.Context, s *Server, req *api.CompareRequest, p prepared, _ func(api.StreamFile)) (*api.CompareResponse, error) {
			oldFV, oldDiag, err := s.analyze(ctx, p.old, nil)
			if err != nil {
				return nil, err
			}
			newFV, newDiag, err := s.analyze(ctx, p.tree, nil)
			if err != nil {
				return nil, err
			}
			cs := trace.SpanFromContext(ctx).Child("score")
			cmp := p.model.Compare(req.Old.Name, oldFV, req.New.Name, newFV)
			cs.End()
			return &api.CompareResponse{Model: p.modelName, Comparison: cmp, OldDiagnostics: oldDiag, NewDiagnostics: newDiag}, nil
		},
		// One summary covers the whole request (both analyses); it rides on
		// the new version's diagnostics.
		diag: func(r *api.CompareResponse) *secmetric.AnalysisDiagnostics { return r.NewDiagnostics },
		// History records the new version, the one the gate is deciding on.
		record: func(r *api.CompareResponse) (float64, bool) { return r.Comparison.NewScore, true },
	},
	&endpoint[api.DeltaRequest, api.DeltaResponse]{
		route: api.DeltaRoute,
		label: "delta",
		prepare: func(s *Server, req *api.DeltaRequest) (p prepared, err error) {
			p = prepared{timeoutMS: req.TimeoutMS, trace: req.Trace}
			if req.RepoID == "" {
				return p, badRequest("repo_id is required")
			}
			if p.changeset, err = toChangeset(req.Changeset); err != nil {
				return p, badRequest(err.Error())
			}
			return p, s.resolveModel(&p, req.Model)
		},
		work: func(ctx context.Context, s *Server, req *api.DeltaRequest, p prepared, _ func(api.StreamFile)) (*api.DeltaResponse, error) {
			t0 := time.Now()
			res, err := s.sessions.acquire(req.RepoID).Apply(ctx, p.changeset)
			switch {
			case err == nil:
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				return nil, err
			case errors.Is(err, core.ErrStaleSession):
				return nil, &reqError{http.StatusConflict, api.CodeStaleSession, err.Error()}
			default:
				// Validation problems (empty changeset, duplicate paths,
				// would-empty) left the session untouched.
				return nil, badRequest(err.Error())
			}
			sc := trace.SpanFromContext(ctx).Child("score")
			subject := fmt.Sprintf("%s@%d", req.RepoID, res.Seq)
			rep := p.model.Score(subject, res.Features)
			var cmp *secmetric.Comparison
			if res.OldFeatures != nil {
				cmp = p.model.Compare(fmt.Sprintf("%s@%d", req.RepoID, res.Seq-1), res.OldFeatures, subject, res.Features)
			}
			sc.End()
			return &api.DeltaResponse{
				Model:       p.modelName,
				RepoID:      req.RepoID,
				Seq:         res.Seq,
				Files:       res.Files,
				Report:      rep,
				Comparison:  cmp,
				ElapsedMS:   time.Since(t0).Milliseconds(),
				Diagnostics: res.Diagnostics,
			}, nil
		},
		diag: func(r *api.DeltaResponse) *secmetric.AnalysisDiagnostics { return r.Diagnostics },
	},
	&endpoint[api.RankRequest, api.RankResponse]{
		route: api.RankRoute,
		label: "rank",
		prepare: func(s *Server, req *api.RankRequest) (p prepared, err error) {
			p = prepared{timeoutMS: req.TimeoutMS}
			if req.Top < 0 {
				return p, badRequest("top must be >= 0")
			}
			p.tree, err = treeOf(req.Tree, "")
			return p, err
		},
		work: func(ctx context.Context, s *Server, req *api.RankRequest, p prepared, _ func(api.StreamFile)) (*api.RankResponse, error) {
			ranking, err := secmetric.RankTree(ctx, p.tree, secmetric.RankConfig{Jobs: s.cfg.AnalyzeJobs, Top: req.Top})
			if err != nil {
				return nil, err
			}
			return &api.RankResponse{Ranking: ranking}, nil
		},
		record: func(*api.RankResponse) (float64, bool) { return 0, false },
	},
	&endpoint[api.QueryRequest, api.QueryResponse]{
		route: api.QueryRoute,
		label: "query",
		prepare: func(s *Server, req *api.QueryRequest) (p prepared, err error) {
			p = prepared{timeoutMS: req.TimeoutMS}
			if p.query, err = query.Parse(req.Query); err != nil {
				return p, badRequest(err.Error())
			}
			if s.cfg.History == nil {
				return p, &reqError{http.StatusNotFound, api.CodeNoHistory,
					"this daemon records no history; start it with -db to enable /v1/query"}
			}
			return p, nil
		},
		work: func(ctx context.Context, s *Server, req *api.QueryRequest, p prepared, _ func(api.StreamFile)) (*api.QueryResponse, error) {
			runs, ex, err := s.cfg.History.Query(p.query, findex.Options{})
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return &api.QueryResponse{
				Runs: runs,
				Explain: api.QueryExplain{
					Index:      ex.Index,
					FullScan:   ex.FullScan,
					Candidates: ex.Candidates,
					Matched:    ex.Matched,
				},
			}, nil
		},
	},
}
