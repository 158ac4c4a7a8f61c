// Package ctxtest holds the context double the cancellation tests of
// pgindex, core and cluster share.
package ctxtest

import (
	"context"
	"sync/atomic"
)

// PollCtx is a live context that counts its Err calls and, when After is
// positive, reports context.Canceled from the After-th call on — which
// places a cancellation at an exact poll of the code under test.
type PollCtx struct {
	context.Context
	After int64
	polls atomic.Int64
}

// New returns a PollCtx over context.Background that is cancelled from its
// after-th Err call on (never, when after is 0).
func New(after int64) *PollCtx {
	return &PollCtx{Context: context.Background(), After: after}
}

func (c *PollCtx) Err() error {
	if c.polls.Add(1) >= c.After && c.After > 0 {
		return context.Canceled
	}
	return nil
}

// Polls is how many times Err has been called.
func (c *PollCtx) Polls() int64 { return c.polls.Load() }
