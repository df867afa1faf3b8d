// Package supervise is the fault-tolerance runtime around the stream
// engine: restart policies with jittered exponential backoff (Backoff,
// the one retry schedule every reconnect loop in the repo shares) and
// a max-restart circuit breaker, per-message panic isolation for DAG
// stages with poison-message quarantine, bounded queues with explicit
// backpressure and drop accounting, deadline-bounded graceful drain,
// and CRC-guarded atomic-rename snapshots for warm state.
//
// The paper's MarketMiner is a long-running platform fed by live TAQ
// data; its MPI ranks were supervised by the cluster scheduler. In the
// Go rewrite the process itself must play scheduler: a panicking stage
// or a poisoned quote must cost one message or one restart, never the
// day's correlation state. Everything here is deterministic under an
// injected clock and rng, so the restart machinery itself is testable
// to the same bit-for-bit standard as the kernels (see DESIGN.md
// §Robustness). Without an injected rng each Backoff seeds its own at
// random, so production clients decorrelate rather than replay one
// schedule.
package supervise

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"marketminer/internal/metrics"
)

// Policy configures restart and retry behaviour for one supervised
// task or stage. The zero value of every field takes the documented
// default, so Policy{} is a usable production policy.
type Policy struct {
	// InitialBackoff is the delay before the first restart (default
	// 10ms); consecutive failures double it up to MaxBackoff (default
	// 2s), jittered as Backoff describes.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// MaxFailures is the circuit breaker: this many consecutive
	// failures (restarts without progress, or poisoned messages
	// without a clean one in between) abort with a CircuitError
	// instead of retrying forever (default 8).
	MaxFailures int
	// Retries is the number of times a Stage re-runs a message whose
	// processing panicked before quarantining it (default 2). Retried
	// work must be idempotent or harmless to repeat; stages that are
	// not should set Retries < 0, which disables retrying (a first
	// panic quarantines immediately).
	Retries int
	// Jitter and Sleep are the Backoff test seams: a seeded rng pins
	// a test's exact schedule (nil draws from a private, randomly
	// seeded rng), and a recording Sleep replaces the real wait.
	Jitter *rand.Rand
	Sleep  func(ctx context.Context, d time.Duration) bool
}

func (p Policy) withDefaults() Policy {
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.MaxFailures <= 0 {
		p.MaxFailures = 8
	}
	if p.Retries == 0 {
		p.Retries = 2
	} else if p.Retries < 0 {
		p.Retries = 0
	}
	return p
}

// Backoff is the one retry schedule shared by every reconnect and
// restart loop: feed collectors, broker subscribers, farm workers and
// supervised tasks and stages. The delay before retry n doubles from
// initial up to max, and each applied delay is drawn uniformly in
// [d/2, d], so clients cut off by the same fault spread their retries
// instead of redialing in lockstep. Callers keep their own attempt
// counting and give-up rules. Safe for concurrent use (stage workers
// may back off in parallel).
type Backoff struct {
	initial, max time.Duration
	sleep        func(ctx context.Context, d time.Duration) bool

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns the schedule. A nil rng means a private, randomly
// seeded one, so default-configured clients never share a schedule;
// inject a seeded rng to pin a test's exact delays. A nil sleep means
// a real timer wait; an injected one must return false iff ctx was
// cancelled before the delay elapsed.
func NewBackoff(initial, max time.Duration, rng *rand.Rand, sleep func(ctx context.Context, d time.Duration) bool) *Backoff {
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	return &Backoff{initial: initial, max: max, sleep: sleep, rng: rng}
}

// Delay returns the jittered delay before retry n, where n (1-based)
// counts the consecutive failures so far.
func (b *Backoff) Delay(n int) time.Duration {
	d := b.initial
	for i := 1; i < n; i++ {
		if d *= 2; d >= b.max {
			d = b.max
			break
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
}

// Sleep waits d, returning false iff ctx was cancelled first.
func (b *Backoff) Sleep(ctx context.Context, d time.Duration) bool {
	if b.sleep != nil {
		return b.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// CircuitError reports an opened circuit breaker: the supervised unit
// failed MaxFailures consecutive times without progress.
type CircuitError struct {
	Name     string
	Failures int
	Last     error
}

func (e *CircuitError) Error() string {
	return fmt.Sprintf("supervise: %s circuit open after %d consecutive failures: %v", e.Name, e.Failures, e.Last)
}

func (e *CircuitError) Unwrap() error { return e.Last }

// PanicError reports a panic recovered by the supervision layer.
type PanicError struct {
	Name  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: %s panicked: %v\n%s", e.Name, e.Value, e.Stack)
}

// runRecovered invokes fn, converting a panic into a *PanicError.
func runRecovered(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Name: name, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// TaskReport summarises one supervised task run.
type TaskReport struct {
	Restarts int   // times the task was restarted after a failure
	Panics   int   // failures that were panics (vs returned errors)
	LastErr  error // most recent failure (nil after a clean finish)
}

// Run executes task under restart supervision until it returns nil
// (clean finish), the context is cancelled, or the circuit opens.
//
// task receives a progress callback; calling it marks the current
// incarnation as having made progress, which resets the consecutive-
// failure count — so a task that crashes at a *different* point each
// time keeps being restarted (it is getting somewhere, e.g. resuming
// further from each snapshot), while one that dies instantly every
// time trips the breaker after Policy.MaxFailures attempts. Both
// panics and returned errors count as failures; backoff applies
// between restarts.
func Run(ctx context.Context, name string, p Policy, task func(ctx context.Context, progress func()) error) (TaskReport, error) {
	p = p.withDefaults()
	bo := NewBackoff(p.InitialBackoff, p.MaxBackoff, p.Jitter, p.Sleep)
	var rep TaskReport
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		progressed := false
		err := runRecovered(name, func() error { return task(ctx, func() { progressed = true }) })
		if err == nil {
			rep.LastErr = nil
			return rep, nil
		}
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		if _, ok := err.(*PanicError); ok {
			rep.Panics++
		}
		rep.LastErr = err
		if progressed {
			failures = 0
		}
		failures++
		if failures >= p.MaxFailures {
			metrics.Counter("supervise.circuit_open").Inc()
			return rep, &CircuitError{Name: name, Failures: failures, Last: err}
		}
		rep.Restarts++
		metrics.Counter("supervise.restarts").Inc()
		if !bo.Sleep(ctx, bo.Delay(failures)) {
			return rep, ctx.Err()
		}
	}
}

// GracefulDrain coordinates a deadline-bounded stop: it waits for done
// while ctx is live; once ctx is cancelled it allows the pipeline up
// to timeout to finish in-flight work, then calls force (the hard
// cancel) and waits for done unconditionally. It returns true when the
// drain completed without forcing.
//
// The caller wires the soft side itself (stop the source when ctx
// dies); GracefulDrain owns only the deadline and the escalation.
func GracefulDrain(ctx context.Context, done <-chan struct{}, timeout time.Duration, force func()) bool {
	select {
	case <-done:
		return true
	case <-ctx.Done():
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		force()
		<-done
		return false
	}
}
