// Package client is the typed HTTP client for secmetricd. It speaks the
// pkg/api wire contract, surfaces the daemon's backpressure and deadline
// signals as inspectable errors (IsQueueFull, IsDeadline), and converts
// on-disk source trees with the same loader the CLI uses — so a gate that
// links the library today can switch to the daemon by swapping one call.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/pkg/api"
)

// DefaultTimeout bounds a request round-trip when neither the caller's
// context nor the request's timeout_ms sets a tighter one. It sits above
// the daemon's default 2-minute request deadline, so a healthy daemon's
// 504 always beats the client giving up, but a daemon that stops
// responding entirely can no longer pin the caller forever.
const DefaultTimeout = 3 * time.Minute

// DeadlineGrace is how much longer than a request's timeout_ms the client
// waits before abandoning the round-trip. The server trips its deadline
// first and answers 504 with the stable "deadline" code; the grace keeps
// the client listening long enough to receive that richer signal instead
// of racing it with a bare context error.
const DeadlineGrace = 5 * time.Second

// Client talks to one secmetricd instance.
type Client struct {
	base string
	// HTTP is the underlying client; replace it to set transport-level
	// options or test doubles.
	HTTP *http.Client
	// Timeout bounds one request round-trip when the caller's context has
	// no deadline of its own. A request carrying timeout_ms is instead
	// bounded by timeout_ms + DeadlineGrace (the server-side 504 must win
	// the race). Zero disables the client-side bound entirely.
	Timeout time.Duration
}

// New builds a client for a base URL like "http://127.0.0.1:8321".
func New(baseURL string) *Client {
	return &Client{
		base:    strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{},
		Timeout: DefaultTimeout,
	}
}

// deadlineCtx applies the client-side time bound: the caller's own
// deadline always wins; otherwise timeout_ms (plus grace) or the
// configured default. The returned cancel must run when the round-trip
// finishes.
func (c *Client) deadlineCtx(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	d := c.Timeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS)*time.Millisecond + DeadlineGrace
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// APIError is a non-2xx daemon response: the HTTP status plus the wire
// envelope's stable code and message.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	// RetryAfter is the server's Retry-After hint in seconds (zero when the
	// response carried none). On 429 the daemon derives it from live queue
	// depth and recent service latency; Retry and RetryDo honor it.
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("secmetricd: %s (http %d, code %s)", e.Message, e.StatusCode, e.Code)
}

// IsQueueFull reports whether err is the daemon's 429 backpressure signal;
// the request was never admitted and is safe to retry after a pause.
func IsQueueFull(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}

// IsDeadline reports whether err is the daemon's 504 deadline signal: the
// request exceeded its (or the server's) time budget.
func IsDeadline(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusGatewayTimeout
}

// IsStaleSession reports whether err is the daemon's 409 signal that a
// delta changeset contradicts the server-side session (first contact,
// eviction, or a diverged client picture). Recovery is re-seeding: send
// the full current tree as an Added-only changeset.
func IsStaleSession(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusConflict && ae.Code == api.CodeStaleSession
}

// IsNoHistory reports whether err is the daemon's 404 signal that it was
// started without -db and therefore records and serves no findings history.
func IsNoHistory(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound && ae.Code == api.CodeNoHistory
}

// Score asks the daemon to analyze and score one tree.
func (c *Client) Score(ctx context.Context, req api.ScoreRequest) (*api.ScoreResponse, error) {
	var out api.ScoreResponse
	if err := c.post(ctx, api.ScoreRoute.Path, req.TimeoutMS, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analyze asks for the raw code-property vector of one tree.
func (c *Client) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
	var out api.AnalyzeResponse
	if err := c.post(ctx, api.AnalyzeRoute.Path, req.TimeoutMS, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Findings asks for the CWE-mapped findings stream of one tree.
func (c *Client) Findings(ctx context.Context, req api.FindingsRequest) (*api.FindingsResponse, error) {
	var out api.FindingsResponse
	if err := c.post(ctx, api.FindingsRoute.Path, req.TimeoutMS, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Compare asks for the risk delta between two versions.
func (c *Client) Compare(ctx context.Context, req api.CompareRequest) (*api.CompareResponse, error) {
	var out api.CompareResponse
	if err := c.post(ctx, api.CompareRoute.Path, req.TimeoutMS, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delta pushes one changeset to the repository's server-side session and
// returns the incremental evaluation. On IsStaleSession errors the caller
// should re-seed with a full Added-only changeset and retry.
func (c *Client) Delta(ctx context.Context, req api.DeltaRequest) (*api.DeltaResponse, error) {
	var out api.DeltaResponse
	if err := c.post(ctx, api.DeltaRoute.Path, req.TimeoutMS, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Rank asks for the function-level risk ranking of one tree.
func (c *Client) Rank(ctx context.Context, req api.RankRequest) (*api.RankResponse, error) {
	var out api.RankResponse
	if err := c.post(ctx, api.RankRoute.Path, req.TimeoutMS, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query runs one findings-history query against the daemon's -db store.
// IsNoHistory distinguishes "daemon keeps no history" from other failures.
func (c *Client) Query(ctx context.Context, req api.QueryRequest) (*api.QueryResponse, error) {
	var out api.QueryResponse
	if err := c.post(ctx, api.QueryRoute.Path, req.TimeoutMS, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reload asks the daemon to re-read its model sources and swap the
// registry snapshot.
func (c *Client) Reload(ctx context.Context) (*api.ReloadResponse, error) {
	var out api.ReloadResponse
	if err := c.post(ctx, "/v1/models/reload", 0, struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches GET /healthz.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var out api.Health
	if err := c.get(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RawMetrics fetches the GET /metrics text exposition.
func (c *Client) RawMetrics(ctx context.Context) (string, error) {
	ctx, cancel := c.deadlineCtx(ctx, 0)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Code: api.CodeInternal, Message: string(body)}
	}
	return string(body), nil
}

func (c *Client) post(ctx context.Context, path string, timeoutMS int64, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	ctx, cancel := c.deadlineCtx(ctx, timeoutMS)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	ctx, cancel := c.deadlineCtx(ctx, 0)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// maxDrain bounds how much of an unread response tail closeBody reads so
// the keep-alive connection can be reused; a longer tail costs a re-dial.
const maxDrain = 4 << 10

// closeBody drains what is left of a response body, up to maxDrain, then
// closes it. Closing a body before EOF (a JSON decoder stops after the
// value, short of the trailing newline) drops the connection instead of
// returning it to the idle pool.
func closeBody(resp *http.Response) {
	_, _ = io.CopyN(io.Discard, resp.Body, maxDrain) // a failed drain only costs the re-dial
	resp.Body.Close()
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer closeBody(resp)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// apiError decodes a rejected response's JSON error envelope. A body that
// is not an envelope still yields an *APIError, with the internal code and
// the HTTP status as its message.
func apiError(resp *http.Response) *APIError {
	var we api.Error
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Error == "" {
		we = api.Error{Code: api.CodeInternal, Error: fmt.Sprintf("http %d", resp.StatusCode)}
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Code:       we.Code,
		Message:    we.Error,
		RetryAfter: retryAfterSeconds(resp),
	}
}

// TreeFromDir loads a source tree from disk into wire form using the same
// loader as `secmetric score <dir>` (recognized extensions only, hidden
// entries skipped, path-sorted). The tree's Name is the dir argument as
// given, so a daemon score of the result is byte-identical to the CLI
// score of the same directory with the same model.
func TreeFromDir(dir string) (api.Tree, error) {
	t, err := metrics.LoadTree(dir)
	if err != nil {
		return api.Tree{}, err
	}
	out := api.Tree{Name: dir}
	for _, f := range t.Files {
		out.Files = append(out.Files, api.File{Path: f.Path, Content: f.Content})
	}
	return out, nil
}
