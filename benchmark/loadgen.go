package main

import (
	"context"
	"time"

	"snoopmva"
)

// kind is a serve request type.
type kind int

const (
	jsonSolve kind = iota // POST /v1/solve
	jsonBatch             // POST /v1/batch of serveBatch points
	wireSolve             // wire Solve frame
	wireBatch             // wire SolveBatch of serveBatch points
)

var kindNames = [...]string{"json_solve", "json_batch", "wire_solve", "wire_batch"}

// overHTTP reports whether k travels over the one HTTP connection.
func (k kind) overHTTP() bool { return k == jsonSolve || k == jsonBatch }

// request is one serve request: its inputs and what happened to it.
type request struct {
	Kind  kind
	Cfgs  []config
	Hot   int  // how many of Cfgs come from the hot set
	Check bool // compare the answers with an in-process Solve

	Sent, Done time.Time // handed to the connection; answer read
	Results    []snoopmva.Result
	Err        error
}

func (r *request) latency() time.Duration { return r.Done.Sub(r.Sent) }

// closedLoop sends the requests next draws, one at a time and in the
// order drawn, for d: each request goes out when the one before it has
// been answered. send performs one request and fills Sent, Done, Results
// and Err; finish then takes it. closedLoop returns how long the phase
// took.
func closedLoop(ctx context.Context, next func() *request, send func(context.Context, *request), finish func(*request), d time.Duration) time.Duration {
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		r := next()
		send(ctx, r)
		finish(r)
	}
	return time.Since(start)
}
