package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/pkg/api"
)

// maxStreamLine bounds one NDJSON record; the summary record carries a
// whole batch response, so the ceiling matches the daemon's request-body
// cap rather than bufio's 64 KiB default.
const maxStreamLine = 64 << 20

// retryAfterSeconds parses the integer form of a Retry-After header,
// zero when absent or unparseable (the HTTP-date form is not something
// the daemon emits).
func retryAfterSeconds(resp *http.Response) int {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return secs
}

// AnalyzeStream posts one tree to POST /v1/analyze/stream and invokes
// onFile for every per-file completion record in arrival order (which is
// scheduling order, not path order). It returns the summary record's
// body — exactly what Analyze would have returned for the same tree.
// Heartbeat records are consumed silently; a trailing error record is
// surfaced as an *APIError just as a batch failure would be.
func (c *Client) AnalyzeStream(ctx context.Context, req api.AnalyzeRequest, onFile func(api.StreamFile)) (*api.AnalyzeResponse, error) {
	rec, err := c.stream(ctx, api.AnalyzeStreamRoute.Path, req.TimeoutMS, req, onFile)
	if err != nil {
		return nil, err
	}
	if rec.Analyze == nil {
		return nil, fmt.Errorf("client: summary record carries no analyze body")
	}
	return rec.Analyze, nil
}

// FindingsStream posts one tree to POST /v1/findings/stream. Each file
// record carries that file's filtered, sorted findings; the returned
// summary is exactly the batch Findings response.
func (c *Client) FindingsStream(ctx context.Context, req api.FindingsRequest, onFile func(api.StreamFile)) (*api.FindingsResponse, error) {
	rec, err := c.stream(ctx, api.FindingsStreamRoute.Path, req.TimeoutMS, req, onFile)
	if err != nil {
		return nil, err
	}
	if rec.Findings == nil {
		return nil, fmt.Errorf("client: summary record carries no findings body")
	}
	return rec.Findings, nil
}

// stream runs one NDJSON request and reads its record sequence with
// readStream.
func (c *Client) stream(ctx context.Context, path string, timeoutMS int64, in any, onFile func(api.StreamFile)) (*api.StreamRecord, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	ctx, cancel := c.deadlineCtx(ctx, timeoutMS)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		// Rejected before the stream began: a plain JSON error envelope.
		return nil, apiError(resp)
	}
	return readStream(resp.Body, onFile)
}

// readStream walks an NDJSON record sequence up to its terminating
// summary or error record and reads nothing after it. It returns the
// summary record; an error record becomes an *APIError with a synthesized
// status (the wire status was already 200 when the failure happened), so
// IsDeadline keeps working for mid-stream deadline trips. onFile, when
// non-nil, receives every file record before the terminator; heartbeats
// and blank lines are skipped. A stream that ends without a terminator is
// an error.
func readStream(r io.Reader, onFile func(api.StreamFile)) (*api.StreamRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec api.StreamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("client: decode stream record: %w", err)
		}
		switch rec.Type {
		case api.StreamTypeHeartbeat:
		case api.StreamTypeFile:
			if onFile != nil && rec.File != nil {
				onFile(*rec.File)
			}
		case api.StreamTypeSummary:
			return &rec, nil
		case api.StreamTypeError:
			we := rec.Err
			if we == nil {
				we = &api.Error{Code: api.CodeInternal, Error: "stream failed with an empty error record"}
			}
			status := http.StatusInternalServerError
			if we.Code == api.CodeDeadline {
				status = http.StatusGatewayTimeout
			}
			return nil, &APIError{StatusCode: status, Code: we.Code, Message: we.Error}
		default:
			return nil, fmt.Errorf("client: unknown stream record type %q", rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: read stream: %w", err)
	}
	return nil, fmt.Errorf("client: stream ended without a summary record")
}
