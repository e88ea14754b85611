// Package singleflight coalesces identical in-flight work: when N
// goroutines ask for the same key concurrently, exactly one (the leader)
// runs the function and the other N-1 (the followers) adopt its result.
// This is the dedup primitive behind secmetricd's per-file coalescing of
// deep extraction, keyed by the feature-cache content hash.
//
// Unlike golang.org/x/sync/singleflight, Do's wait is context-bounded per
// follower: a follower whose context expires abandons the wait with the
// context's error while the leader (and any patient followers) continue
// unaffected. Keys are forgotten the moment the leader finishes, so a
// completed result is never served to a later caller — coalescing dedups
// concurrency, it is not a cache.
package singleflight

import (
	"context"
	"sync"
	"sync/atomic"
)

// call is one in-flight execution. done is closed after val is set.
type call[V any] struct {
	done chan struct{}
	val  V
}

// Group coalesces concurrent Do calls by key. The zero value is ready to
// use. A Group must not be copied after first use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]

	leads  atomic.Uint64
	shared atomic.Uint64
}

// Do returns fn's result for key, running fn exactly once among concurrent
// callers of the same key. shared is true when this call adopted another
// caller's execution instead of running fn itself.
//
// ctx bounds only the follower's wait: the leader always runs fn to
// completion (fn must honor its own cancellation internally if it wants
// any), so one impatient caller can never poison the result the patient
// ones are waiting for. A follower whose ctx ends before the leader
// finishes returns the zero V, shared=true, and ctx's error.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() V) (v V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		g.shared.Add(1)
		select {
		case <-c.done:
			return c.val, true, nil
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	if g.calls == nil {
		g.calls = map[string]*call[V]{}
	}
	g.calls[key] = c
	g.mu.Unlock()

	g.leads.Add(1)
	c.val = fn()

	// Forget the key before releasing the followers: a caller arriving
	// after this point starts a fresh execution rather than reading a
	// completed one, which keeps Do a dedup, not a cache.
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, nil
}

// Leads counts executions this group actually ran.
func (g *Group[V]) Leads() uint64 { return g.leads.Load() }

// Shared counts calls that coalesced onto another caller's execution
// (including followers that gave up waiting).
func (g *Group[V]) Shared() uint64 { return g.shared.Load() }
