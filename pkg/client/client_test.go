package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pkg/api"
)

// TestConnectionReusedAfterTrailingBytes: a response whose body carries
// bytes after the JSON value (here flushed separately, so the decoder
// stops short of them) must still leave the keep-alive connection
// reusable, so sequential calls share one connection.
func TestConnectionReusedAfterTrailingBytes(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(api.ScoreResponse{Model: "default"})
		w.(http.Flusher).Flush()
		w.Write([]byte(strings.Repeat(" ", 512) + "\n"))
	}))
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	c := New(ts.URL)
	for i := 0; i < 10; i++ {
		if _, err := c.Score(context.Background(), api.ScoreRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("10 sequential calls opened %d connections, want 1", got)
	}
}
