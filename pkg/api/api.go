// Package api defines the JSON wire contract of secmetricd, the
// clairvoyance-as-a-service scoring daemon: request and response envelopes
// for the analyzing endpoints (/v1/score, /v1/analyze, /v1/findings,
// /v1/compare, /v1/delta, /v1/rank), the history endpoint (/v1/query,
// served when the daemon persists runs with -db), the operational
// endpoints (/healthz, /v1/models/reload),
// and the error envelope every non-2xx response carries. The server
// (internal/server), the shard router (internal/router), and the typed
// client (pkg/client) all build against these types and the routes that
// pair each path with its request type, so the contract lives in exactly
// one place.
package api

import (
	secmetric "repro"
)

// File is one source file of a tree shipped for analysis. The language is
// inferred server-side from the path extension, exactly as the CLI's
// directory loader infers it; files with unrecognized extensions and
// dot-files are skipped the same way.
type File struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

// Tree is a JSON-encoded source tree, the unit every analyzing endpoint
// accepts. Name becomes the report's subject line.
type Tree struct {
	Name  string `json:"name"`
	Files []File `json:"files"`
}

// ScoreRequest asks POST /v1/score for the security report of one tree.
type ScoreRequest struct {
	// Model names a registry entry; empty selects the daemon's default.
	Model string `json:"model,omitempty"`
	Tree  Tree   `json:"tree"`
	// TimeoutMS optionally tightens this request's deadline below the
	// server's configured maximum; it can never extend it. A request that
	// exceeds its deadline fails with status 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks the daemon to join a span summary (wall time, per-phase
	// busy totals) onto the response diagnostics. Leaving it unset yields
	// a response byte-identical to one from a daemon without tracing.
	Trace bool `json:"trace,omitempty"`
}

// ScoreResponse carries the evaluation plus the per-file account of how the
// analysis went (degraded files, cache traffic).
type ScoreResponse struct {
	// Model is the resolved registry name the report was scored with.
	Model       string                         `json:"model"`
	Report      *secmetric.Report              `json:"report"`
	Diagnostics *secmetric.AnalysisDiagnostics `json:"diagnostics,omitempty"`
}

// AnalyzeRequest asks POST /v1/analyze for the raw code-property vector,
// with no model involved.
type AnalyzeRequest struct {
	Tree      Tree  `json:"tree"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace joins a span summary onto the response diagnostics.
	Trace bool `json:"trace,omitempty"`
}

// AnalyzeResponse is the extracted feature vector.
type AnalyzeResponse struct {
	Features    secmetric.FeatureVector        `json:"features"`
	Diagnostics *secmetric.AnalysisDiagnostics `json:"diagnostics,omitempty"`
}

// FindingsRequest asks POST /v1/findings for the CWE-mapped findings
// stream of one tree.
type FindingsRequest struct {
	Tree Tree `json:"tree"`
	// MinSeverity filters the stream ("info", "low", "medium", "high",
	// "critical"); empty reports everything.
	MinSeverity string `json:"min_severity,omitempty"`
	TimeoutMS   int64  `json:"timeout_ms,omitempty"`
}

// FindingsResponse is the filtered findings stream.
type FindingsResponse struct {
	Report *secmetric.FindingsReport `json:"report"`
}

// CompareRequest asks POST /v1/compare for the risk delta between two
// versions of a codebase — the paper's per-change CI gate, served. Both
// versions are analyzed against the daemon's shared feature cache, so only
// the files that differ are deep-analyzed twice.
type CompareRequest struct {
	Model     string `json:"model,omitempty"`
	Old       Tree   `json:"old"`
	New       Tree   `json:"new"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Trace joins one span summary covering both analyses onto the new
	// version's diagnostics.
	Trace bool `json:"trace,omitempty"`
}

// CompareResponse is the comparison plus both analyses' diagnostics.
type CompareResponse struct {
	Model          string                         `json:"model"`
	Comparison     *secmetric.Comparison          `json:"comparison"`
	OldDiagnostics *secmetric.AnalysisDiagnostics `json:"old_diagnostics,omitempty"`
	NewDiagnostics *secmetric.AnalysisDiagnostics `json:"new_diagnostics,omitempty"`
}

// Changeset is one edit step against a repository session: files added,
// files whose content changed, and paths removed. Paths obey the same
// filtering as Tree files (dot-files and unrecognized extensions are
// ignored), and the same uniqueness rule: one path may appear at most once
// across the three lists.
type Changeset struct {
	Added    []File   `json:"added,omitempty"`
	Modified []File   `json:"modified,omitempty"`
	Removed  []string `json:"removed,omitempty"`
}

// DeltaRequest asks POST /v1/delta for the risk delta of one changeset
// against the repository's server-side session — the per-change CI gate
// without re-shipping or re-analyzing the whole tree. The first request
// for a repo_id (or the first after an eviction) must seed the session
// with an Added-only changeset carrying the full tree; the server answers
// 409 with code "stale_session" when the changeset contradicts its
// current picture, and the client recovers by re-seeding.
type DeltaRequest struct {
	// RepoID keys the server-side session registry. Sessions are evicted
	// LRU beyond the daemon's capacity and after its idle TTL.
	RepoID string `json:"repo_id"`
	// Model names a registry entry; empty selects the daemon's default.
	Model     string    `json:"model,omitempty"`
	Changeset Changeset `json:"changeset"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
	// Trace joins a span summary onto the response diagnostics.
	Trace bool `json:"trace,omitempty"`
}

// DeltaResponse carries the post-changeset evaluation. Features is
// byte-identical to what /v1/analyze would report for the full current
// tree; Comparison is present from the second changeset on.
type DeltaResponse struct {
	Model  string `json:"model"`
	RepoID string `json:"repo_id"`
	// Seq counts the changesets applied to this session, starting at 1.
	// A jump the client did not expect means the session was rebuilt.
	Seq uint64 `json:"seq"`
	// Files is the session's file count after the changeset.
	Files int `json:"files"`
	// Report scores the tree as it stands after the changeset.
	Report *secmetric.Report `json:"report"`
	// Comparison is the risk delta against the session's previous state;
	// absent on the seeding changeset, which has nothing to diff against.
	Comparison *secmetric.Comparison `json:"comparison,omitempty"`
	// ElapsedMS is the server-side wall time of the apply + score, the
	// number the incremental path exists to shrink.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Diagnostics covers only the re-analyzed (added + modified) files.
	Diagnostics *secmetric.AnalysisDiagnostics `json:"diagnostics,omitempty"`
}

// RankRequest asks POST /v1/rank for the function-level risk ranking of one
// tree — the LEOPARD-style bin-then-rank ordering the `secmetric rank` CLI
// prints. The response is byte-identical (after canonical re-marshalling) to
// `secmetric rank -json` over the same tree.
type RankRequest struct {
	Tree Tree `json:"tree"`
	// Top trims the ranking to its first N entries; 0 keeps every function.
	Top       int   `json:"top,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RankResponse is the function-level ranking.
type RankResponse struct {
	Ranking *secmetric.Ranking `json:"ranking"`
}

// QueryRequest asks POST /v1/query to run one findings-history query
// (the internal/store/query language) against the daemon's -db store.
// A daemon started without -db answers 404 with code "no_history".
type QueryRequest struct {
	// Query is the filter expression, e.g.
	// `cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20`.
	// The empty string matches every run.
	Query     string `json:"query"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// QueryExplain mirrors the planner's account of how a query executed.
type QueryExplain struct {
	// Index names the access path (e.g. "cwe121"); empty for a full scan.
	// A query whose filter pins a repo scans only that repo's entries of a
	// file, CWE or severity index, named like `cwe121 repo("app")`.
	Index string `json:"index,omitempty"`
	// FullScan reports whether every run row was visited.
	FullScan bool `json:"full_scan"`
	// Candidates counts rows fetched; Matched counts rows that passed the
	// filter, before LIMIT.
	Candidates int `json:"candidates"`
	Matched    int `json:"matched"`
}

// QueryResponse is the matching runs plus the plan that produced them.
type QueryResponse struct {
	Runs    []secmetric.HistoryRun `json:"runs"`
	Explain QueryExplain           `json:"explain"`
}

// StreamRecord is one NDJSON line of the streaming endpoints
// (POST /v1/analyze/stream, POST /v1/findings/stream). A stream is a
// sequence of "file" records — one per tree file, emitted the moment that
// file's analysis finishes, so arrival order is scheduling order — then
// exactly one "summary" record carrying the same body the batch endpoint
// would have returned for the whole tree. "heartbeat" records may appear
// anywhere and carry nothing; clients skip them. A failure after the first
// byte is on the wire cannot change the status line anymore, so it arrives
// as a trailing "error" record instead of a summary.
type StreamRecord struct {
	// Type is "file", "summary", "heartbeat", or "error".
	Type string `json:"type"`
	// File is set on "file" records.
	File *StreamFile `json:"file,omitempty"`
	// Analyze is the summary body of an analyze stream.
	Analyze *AnalyzeResponse `json:"analyze,omitempty"`
	// Findings is the summary body of a findings stream.
	Findings *FindingsResponse `json:"findings,omitempty"`
	// Err is set on "error" records.
	Err *Error `json:"error,omitempty"`
}

// StreamFile is one file's completion record. On a findings stream it also
// carries that file's (already filtered, already sorted) findings; the
// concatenation of every record's findings in tree (path-sorted) order is
// exactly the batch report.
type StreamFile struct {
	Path   string `json:"path"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
	// Findings is present only on findings streams (and omitted when the
	// file contributed none).
	Findings []secmetric.Finding `json:"findings,omitempty"`
}

// Stream record types.
const (
	StreamTypeFile      = "file"
	StreamTypeSummary   = "summary"
	StreamTypeHeartbeat = "heartbeat"
	StreamTypeError     = "error"
)

// RouterBackend is one backend's view in the router's health report.
type RouterBackend struct {
	// Addr is the backend's base URL as configured.
	Addr string `json:"addr"`
	// Healthy reports whether the ring currently routes to this backend.
	Healthy bool `json:"healthy"`
	// Requests / Errors count proxied requests and transport-level
	// failures (a backend answering 4xx/5xx is a served request, not an
	// error; errors are dials that failed or bodies that died mid-copy).
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// RouterHealth is the shard router's GET /healthz body.
type RouterHealth struct {
	Status   string          `json:"status"`
	Backends []RouterBackend `json:"backends"`
}

// Health is GET /healthz's body.
type Health struct {
	Status        string   `json:"status"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Models        []string `json:"models"`
	DefaultModel  string   `json:"default_model"`
	InFlight      int64    `json:"in_flight"`
	Queued        int64    `json:"queued"`
	Reloads       uint64   `json:"model_reloads"`
}

// ReloadResponse is POST /v1/models/reload's body after a successful swap.
type ReloadResponse struct {
	Models       []string `json:"models"`
	DefaultModel string   `json:"default_model"`
}

// Error is the envelope of every non-2xx response.
type Error struct {
	// Code is a stable machine-readable reason: "bad_request",
	// "unknown_model", "queue_full", "deadline", "body_too_large",
	// "stale_session", "no_history", "reload_failed", "internal".
	Code  string `json:"code"`
	Error string `json:"error"`
}

// DefaultMaxBodyBytes is the request-body cap the daemon and the shard
// router apply when configured with none: 32 MiB, roomy for a JSON-encoded
// source tree, far below anything that could OOM the process. A larger body
// is answered 413 with CodeBodyTooLarge.
const DefaultMaxBodyBytes = 32 << 20

// Stable error codes.
const (
	CodeBadRequest   = "bad_request"
	CodeUnknownModel = "unknown_model"
	CodeQueueFull    = "queue_full"
	CodeDeadline     = "deadline"
	CodeBodyTooLarge = "body_too_large"
	CodeStaleSession = "stale_session"
	CodeNoHistory    = "no_history"
	CodeReloadFailed = "reload_failed"
	CodeInternal     = "internal"
	// CodeNoBackend is the shard router's 503: the key's ring walk found
	// no healthy backend to serve the request.
	CodeNoBackend = "no_backend"
)
