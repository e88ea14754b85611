package core

import (
	"context"
	"errors"
	"fmt"
	"time"
	"unicode/utf8"

	"repro/internal/featcache"
	"repro/internal/findings"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/ml"
)

// FindingsConfig tunes CollectFindings. Jobs, Cache and FileTimeout mean
// what they mean in ExtractConfig, and a daemon passes the same values to
// both, so one feature cache holds both record kinds.
type FindingsConfig struct {
	// Jobs bounds the per-file worker pool; <= 0 uses every core.
	Jobs int
	// Cache, when non-nil, memoizes each file's findings list next to its
	// enrichment record, under a key of its own.
	Cache *featcache.Cache
	// FileTimeout bounds one file's findings analysis; <= 0 disables the
	// bound.
	FileTimeout time.Duration
	// MinSeverity drops findings below it from the report and from
	// FileDone's lists.
	MinSeverity findings.Severity
	// FileDone, when non-nil, receives each file's diagnostic and its kept
	// findings, sorted, as the worker pool finishes that file: on worker
	// goroutines, in completion order.
	FileDone func(i int, d FileDiagnostic, kept []findings.Finding)
}

// ErrFindingsDegraded marks a collection in which some file's findings
// analysis panicked or timed out. A report without that file's findings
// would understate the tree, so CollectFindings returns this error instead
// of a partial report.
var ErrFindingsDegraded = errors.New("core: findings analysis degraded")

// findingsTestHook, when non-nil, runs at the top of every file's findings
// analysis inside runContained's panic boundary, as enrichTestHook does for
// the deep analysis; production code never sets it.
var findingsTestHook func(f metrics.File)

// SetFindingsTestHook installs hook as the findings test hook and returns
// the function that removes it. It lets the daemon's tests degrade one
// file's findings end to end; production code never calls it.
func SetFindingsTestHook(hook func(f metrics.File)) (restore func()) {
	findingsTestHook = hook
	return func() { findingsTestHook = nil }
}

// findingsRecord is the feature cache's second record kind: one file's
// findings as findings.AnalyzeFile returns them, sorted, with every File
// blank, so one record serves the same bytes at any path. It is a struct so
// a bare null entry reads as corrupt.
type findingsRecord struct {
	Findings []findings.Finding `json:"findings"`
}

// CollectFindings runs the findings layer over every file of the tree on a
// pool of cfg.Jobs workers and merges the per-file lists into the tree's
// report, sorted by (file, line, rule, message); the report is the same at
// every Jobs and whether each file hit the cache or not. A file whose
// analysis panics or outlives cfg.FileTimeout is contained to that file,
// reported to FileDone with its status, never cached, and fails the whole
// collection with ErrFindingsDegraded once the pool has finished. A
// canceled ctx stops the pool and is returned as the error.
//
// The collector emits no trace spans: a caller's span around it stays a
// leaf.
func CollectFindings(ctx context.Context, tree *metrics.Tree, cfg FindingsConfig) (*findings.Report, error) {
	perFile := make([][]findings.Finding, len(tree.Files))
	diags := make([]FileDiagnostic, len(tree.Files))
	_ = ml.ParallelForCtx(ctx, len(tree.Files), cfg.Jobs, func(i int) error {
		f := tree.Files[i]
		all, status, detail := fileFindingsCached(ctx, f, cfg)
		// MinSeverity copies the list, so naming the path never writes to
		// a record the cache shares with other readers.
		kept := (&findings.Report{Findings: all}).MinSeverity(cfg.MinSeverity).Findings
		for j := range kept {
			kept[j].File = f.Path
		}
		perFile[i] = kept
		diags[i] = FileDiagnostic{Path: f.Path, Status: status, Detail: detail}
		if cfg.FileDone != nil {
			cfg.FileDone(i, diags[i], perFile[i])
		}
		return nil
	})
	// As in ExtractFeaturesDiagnostics: the body never fails, and a
	// single-worker pool reports a run canceled during its last file as
	// clean.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, d := range diags {
		if d.Status == StatusTimeout || d.Status == StatusPanic {
			return nil, fmt.Errorf("%w: %s: %s", ErrFindingsDegraded, d.Path, d.Detail)
		}
	}
	return findings.Merge(perFile), nil
}

// fileFindingsCached reads the file's findings record from the cache and
// runs the analysis only on a miss. The key covers the analysis version,
// the record kind, the file's language and its bytes: everything
// findings.AnalyzeFile takes, so a hit equals a fresh analysis. Either way
// every finding's File is blank, and a hit's list is shared with every
// other reader of the record, so the caller copies it before it names the
// path. Only a completed analysis is written back, and only when every
// string survives a JSON round trip unchanged (JSON would replace invalid
// UTF-8 in a message, and a warm run must print what a cold run prints).
func fileFindingsCached(ctx context.Context, f metrics.File, cfg FindingsConfig) ([]findings.Finding, FileStatus, string) {
	if cfg.Cache == nil {
		return fileFindingsContained(ctx, f, cfg.FileTimeout)
	}
	key := findingsKey(f)
	if rec, ok := featcache.Get[findingsRecord](cfg.Cache, key); ok {
		return rec.Findings, StatusCacheHit, ""
	}
	list, status, detail := fileFindingsContained(ctx, f, cfg.FileTimeout)
	if status == StatusOK && roundTrips(list) {
		_ = featcache.Put(cfg.Cache, key, findingsRecord{Findings: list})
	}
	return list, status, detail
}

// findingsKey is the feature-cache key of f's findings record: the record
// kind, then the file's language.
func findingsKey(f metrics.File) string {
	return featcache.Key(AnalysisVersion, "findings", f.Language.String(), f.Content)
}

// fileFindingsContained parses the file and runs findings.AnalyzeFile
// under the extraction pipeline's containment, which covers the parse too.
// A degraded file has no findings.
func fileFindingsContained(ctx context.Context, f metrics.File, timeout time.Duration) ([]findings.Finding, FileStatus, string) {
	list, status, detail, _ := runContained(ctx, timeout, "findings analysis", func() ([]findings.Finding, FileStatus, string) {
		if findingsTestHook != nil {
			findingsTestHook(f)
		}
		ast, prog, _ := ir.Parse(f.Content)
		return findings.AnalyzeFile(f.Language, f.Content, ast, prog).Findings, StatusOK, ""
	})
	return list, status, detail
}

// roundTrips reports whether every string of the list is valid UTF-8, the
// condition for its JSON record to decode to the same list.
func roundTrips(list []findings.Finding) bool {
	for _, fd := range list {
		if !utf8.ValidString(fd.Rule) || !utf8.ValidString(fd.Message) {
			return false
		}
	}
	return true
}
