package core

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// FileStatus classifies how one file fared in the deep-analysis pipeline.
// Only StatusTimeout and StatusPanic mean the file's enrichment degraded to
// zero; the other statuses are normal outcomes.
type FileStatus string

// Per-file analysis outcomes.
const (
	// StatusOK: the file was analyzed to completion (for languages outside
	// the deep-analysis set this means "base metrics only, by design").
	StatusOK FileStatus = "ok"
	// StatusParseSkip: the file is in a deep-analyzable language but did
	// not parse (or lower to IR), so it contributed base metrics only.
	StatusParseSkip FileStatus = "parse-skip"
	// StatusTimeout: the deep analysis exceeded ExtractConfig.FileTimeout
	// and the file degraded to base metrics only.
	StatusTimeout FileStatus = "timeout"
	// StatusPanic: a deep analysis panicked; the panic was contained to
	// this file, which degraded to base metrics only.
	StatusPanic FileStatus = "panic-contained"
	// StatusCacheHit: the enrichment came from the content-addressed
	// feature cache; no analysis ran this run.
	StatusCacheHit FileStatus = "cache-hit"
)

// FileDiagnostic records one file's outcome, with detail (the parse error,
// panic value, or timeout) when the file did not complete normally.
type FileDiagnostic struct {
	Path   string     `json:"path"`
	Status FileStatus `json:"status"`
	Detail string     `json:"detail,omitempty"`
}

// AnalysisDiagnostics is the per-run account of the extraction pipeline:
// every file's status in tree order plus the feature-cache traffic. It is
// the "never lie by omission" half of the graceful-degradation contract —
// a vector assembled from partial analyses always says which files were
// partial and why.
type AnalysisDiagnostics struct {
	// Files holds one entry per tree file, in tree (path-sorted) order.
	Files []FileDiagnostic `json:"files"`
	// CacheHits / CacheMisses count this run's feature-cache traffic
	// (zero when no cache is configured).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Trace is the span summary of the run — wall time, span count, and
	// per-phase busy totals. It is attached only when the caller asked for
	// tracing (a daemon request with trace=true); otherwise the field is
	// absent and the serialized diagnostics are byte-identical to an
	// untraced run's.
	Trace *trace.Summary `json:"trace,omitempty"`
}

// Counts tallies files by status.
func (d *AnalysisDiagnostics) Counts() map[FileStatus]int {
	out := map[FileStatus]int{}
	for _, f := range d.Files {
		out[f.Status]++
	}
	return out
}

// Degraded returns the files whose deep analysis did not complete this run
// (timeout or contained panic) — the files whose enrichment is a zero but
// for their lint count.
func (d *AnalysisDiagnostics) Degraded() []FileDiagnostic {
	var out []FileDiagnostic
	for _, f := range d.Files {
		if f.Status == StatusTimeout || f.Status == StatusPanic {
			out = append(out, f)
		}
	}
	return out
}

// Clean reports whether every file completed without degradation.
func (d *AnalysisDiagnostics) Clean() bool {
	return len(d.Degraded()) == 0
}

// String renders the diagnostics as the CLI prints them.
func (d *AnalysisDiagnostics) String() string {
	var sb strings.Builder
	c := d.Counts()
	fmt.Fprintf(&sb, "Analysis diagnostics: %d file(s)\n", len(d.Files))
	fmt.Fprintf(&sb, "  status: %d ok, %d parse-skip, %d cache-hit, %d timeout, %d panic-contained\n",
		c[StatusOK], c[StatusParseSkip], c[StatusCacheHit], c[StatusTimeout], c[StatusPanic])
	if d.CacheHits+d.CacheMisses > 0 {
		fmt.Fprintf(&sb, "  feature cache: %d hit(s), %d miss(es)\n", d.CacheHits, d.CacheMisses)
	}
	for _, f := range d.Files {
		if f.Status == StatusOK || f.Status == StatusCacheHit {
			continue
		}
		fmt.Fprintf(&sb, "  %-28s %-15s %s\n", f.Path, f.Status, f.Detail)
	}
	return sb.String()
}
