package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/pkg/api"
)

// streamWriter serializes NDJSON records onto one response, interleaving
// keepalive heartbeats whenever the analysis goes quiet. Every send
// flushes, so a record reaches the client the moment the file finishes —
// that is the endpoint's whole point, and it is what the statusRecorder
// Flush forwarding exists for.
//
// Sends come from the extraction pool's worker goroutines concurrently
// with the heartbeat ticker, hence the mutex. The first failed write
// marks the stream dead (the client is gone; later records are dropped)
// and feeds the shared response-write-error counter.
type streamWriter struct {
	s    *Server
	mu   sync.Mutex
	enc  *json.Encoder
	rc   *http.ResponseController
	dead bool
	quit chan struct{}
	done chan struct{}
}

// startStream commits the 200 and the NDJSON content type (after this,
// failures can only be reported on-stream) and starts the heartbeat
// ticker. Callers must end() it before returning.
func (s *Server) startStream(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{
		s:    s,
		enc:  json.NewEncoder(w),
		rc:   http.NewResponseController(w),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	sw.flushLocked()
	go sw.heartbeatLoop(s.heartbeat)
	return sw
}

func (sw *streamWriter) heartbeatLoop(interval time.Duration) {
	defer close(sw.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sw.quit:
			return
		case <-t.C:
			sw.send(api.StreamRecord{Type: api.StreamTypeHeartbeat})
		}
	}
}

// send writes one record and flushes it out.
func (sw *streamWriter) send(rec api.StreamRecord) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.dead {
		return
	}
	if err := sw.enc.Encode(rec); err != nil {
		sw.dead = true
		sw.s.countWriteError(err)
		return
	}
	sw.flushLocked()
}

func (sw *streamWriter) flushLocked() {
	if err := sw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		sw.dead = true
		sw.s.countWriteError(err)
	}
}

// sendError converts a mid-stream failure into the trailing error record —
// the status line is long gone, so this is the only honest channel left.
func (sw *streamWriter) sendError(err error) {
	_, code := errorCode(err)
	sw.send(api.StreamRecord{Type: api.StreamTypeError, Err: &api.Error{Code: code, Error: err.Error()}})
}

// end stops the heartbeat ticker and waits it out, so no heartbeat can
// trail the summary record.
func (sw *streamWriter) end() {
	close(sw.quit)
	<-sw.done
}
