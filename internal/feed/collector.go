package feed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"sync"

	"marketminer/internal/metrics"
	"marketminer/internal/supervise"
	"marketminer/internal/taq"
)

// DialFunc establishes one connection to the feed server. Tests inject
// flaky implementations; the default dials CollectorConfig.Addr.
type DialFunc func(ctx context.Context) (net.Conn, error)

// CollectorConfig tunes a Collector. Zero fields take the documented
// defaults.
type CollectorConfig struct {
	// Addr is the feed server address (used by the default dialer).
	Addr string
	// Dial overrides the transport; when nil a TCP dialer to Addr is
	// used.
	Dial DialFunc
	// Buffer is the depth of the outgoing quote channel (default 1024).
	Buffer int
	// InitialBackoff is the reconnect delay after the first failure
	// (default 50ms); consecutive failures double it up to MaxBackoff
	// (default 5s), jittered as supervise.Backoff describes so
	// collectors cut off together do not redial in lockstep.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// Jitter and Sleep are the supervise.Backoff test seams: a seeded
	// rng pins a test's exact schedule (nil draws from a private,
	// randomly seeded rng per collector), and a recording Sleep
	// asserts reconnect schedules without wall-clock time.
	Jitter *rand.Rand
	Sleep  func(ctx context.Context, d time.Duration) bool
	// HeartbeatTimeout is the read deadline per frame: a connection
	// silent for longer (no batches, no heartbeats) is presumed dead
	// and redialed (default 15s). Must exceed the server's Heartbeat
	// interval.
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds consecutive connection attempts that fail
	// before Run gives up (0 = retry forever, until ctx cancels).
	MaxAttempts int
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Dial == nil {
		addr := c.Addr
		d := &net.Dialer{}
		c.Dial = func(ctx context.Context) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if c.Buffer <= 0 {
		c.Buffer = 1024
	}
	if c.InitialBackoff <= 0 {
		c.InitialBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 15 * time.Second
	}
	return c
}

// CollectorStats is a snapshot of collector counters. Gaps and
// Reconnects are mirrored into the process-wide metrics registry as
// "feed.collector.gap_resumes" and "feed.collector.reconnects", so
// operators see resume churn without scraping logs.
type CollectorStats struct {
	Connects        int // sessions that completed a handshake
	Reconnects      int // handshakes after the first (resumed sessions)
	DialFailures    int // failed connection attempts
	Disconnects     int // sessions that ended before the End frame
	Batches         int // batches delivered downstream
	Quotes          int // quotes delivered downstream
	Duplicates      int // quotes skipped because their batch was already seen
	Gaps            int // sequence holes observed (forces a resume)
	OrderViolations int // quotes breaking (Day, SeqTime) monotonicity
	LastSeq         uint64
	Backoffs        []time.Duration // applied reconnect delays, in order
}

// errEndOfFeed signals the server's clean End frame.
var errEndOfFeed = errors.New("feed: end of stream")

// ErrUniverseChanged is returned when a reconnected session advertises
// a different symbol table than the first; resuming a sequence-
// numbered stream across universes would mis-map every quote.
var ErrUniverseChanged = errors.New("feed: server universe changed across reconnect")

// Collector is the resilient client side of the feed: it maintains a
// subscription to a feed server, transparently reconnecting with
// exponential backoff and resuming from the last delivered sequence
// number, and exposes the stream as a quote channel — the same
// contract the in-process pipeline source consumes.
//
// Resilience properties, each covered by tests:
//   - reconnect with exponential backoff + jitter on dial failure or
//     mid-stream disconnect;
//   - zero quote loss and zero duplicates across reconnects, enforced
//     by batch sequence numbers (resume-from-seq + skip-replayed);
//   - heartbeat timeouts: a silent connection is redialed;
//   - (Day, SeqTime) monotonicity validation via taq.OrderChecker.
type Collector struct {
	cfg    CollectorConfig
	quotes chan taq.Quote
	bo     *supervise.Backoff

	uniReady chan struct{}
	uni      *taq.Universe

	closeOnce sync.Once

	mu      sync.Mutex
	st      CollectorStats
	lastSeq uint64
	order   taq.OrderChecker
}

// NewCollector returns a Collector; call Run to start it.
func NewCollector(cfg CollectorConfig) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		cfg:      cfg,
		quotes:   make(chan taq.Quote, cfg.Buffer),
		bo:       supervise.NewBackoff(cfg.InitialBackoff, cfg.MaxBackoff, cfg.Jitter, cfg.Sleep),
		uniReady: make(chan struct{}),
	}
}

// Quotes returns the delivery channel. It is closed when Run returns:
// after the server's End frame (clean end of stream), on context
// cancellation, or when MaxAttempts is exhausted.
func (c *Collector) Quotes() <-chan taq.Quote { return c.quotes }

// Universe blocks until the first Hello frame has been received and
// returns the server's symbol table as a Universe.
func (c *Collector) Universe(ctx context.Context) (*taq.Universe, error) {
	select {
	case <-c.uniReady:
		return c.uni, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats returns a snapshot of the collector counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.LastSeq = c.lastSeq
	st.OrderViolations = c.order.Violations()
	st.Backoffs = append([]time.Duration(nil), c.st.Backoffs...)
	return st
}

// Run drives the collector until the stream ends cleanly (returns
// nil), the context is cancelled (returns ctx.Err()), or MaxAttempts
// consecutive connection attempts fail (returns the last error). The
// quote channel is closed in every case. Run must be called once.
func (c *Collector) Run(ctx context.Context) error {
	defer c.closeOnce.Do(func() { close(c.quotes) })
	attempt := 0 // consecutive failures without progress
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := c.cfg.Dial(ctx)
		if err != nil {
			c.mu.Lock()
			c.st.DialFailures++
			c.mu.Unlock()
		} else {
			var progressed bool
			progressed, err = c.session(ctx, conn)
			if errors.Is(err, errEndOfFeed) {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrUniverseChanged) {
				return err
			}
			c.mu.Lock()
			c.st.Disconnects++
			c.mu.Unlock()
			if progressed {
				attempt = 0 // the stream moved; start backoff over
			}
		}
		attempt++
		if c.cfg.MaxAttempts > 0 && attempt >= c.cfg.MaxAttempts {
			return fmt.Errorf("feed: giving up after %d attempts: %w", attempt, err)
		}
		d := c.bo.Delay(attempt)
		c.mu.Lock()
		c.st.Backoffs = append(c.st.Backoffs, d)
		c.mu.Unlock()
		if !c.bo.Sleep(ctx, d) {
			return ctx.Err()
		}
	}
}

// session runs one connection: subscribe at the resume point, validate
// the Hello, then deliver batches until the stream ends or breaks.
// progressed reports whether at least one new batch arrived.
func (c *Collector) session(ctx context.Context, conn net.Conn) (progressed bool, err error) {
	defer conn.Close()
	// Unblock conn reads when the context dies.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()

	enc := NewEncoder(conn, nil)
	conn.SetWriteDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
	c.mu.Lock()
	from := c.lastSeq
	c.mu.Unlock()
	if err := enc.WriteSubscribe(&Subscribe{From: from}); err != nil {
		return false, fmt.Errorf("feed: subscribe: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})

	dec := NewDecoder(conn)
	readFrame := func() (Frame, error) {
		conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
		return dec.Read()
	}

	f, err := readFrame()
	if err != nil {
		return false, fmt.Errorf("feed: hello: %w", err)
	}
	hello, ok := f.(*Hello)
	if !ok {
		return false, protoErrf("expected hello, got %s", f.frameType())
	}
	if hello.Version != ProtocolVersion {
		return false, protoErrf("server speaks version %d, want %d", hello.Version, ProtocolVersion)
	}
	if err := c.acceptUniverse(hello.Symbols); err != nil {
		return false, err
	}
	c.mu.Lock()
	c.st.Connects++
	if c.st.Connects > 1 {
		c.st.Reconnects++
		metrics.Counter("feed.collector.reconnects").Inc()
	}
	c.mu.Unlock()

	for {
		f, err := readFrame()
		if err != nil {
			return progressed, err
		}
		switch fr := f.(type) {
		case *Batch:
			c.mu.Lock()
			switch {
			case fr.Seq <= c.lastSeq:
				// Replayed by the resume protocol; already delivered.
				c.st.Duplicates += len(fr.Quotes)
				c.mu.Unlock()
				continue
			case fr.Seq != c.lastSeq+1:
				c.st.Gaps++
				metrics.Counter("feed.collector.gap_resumes").Inc()
				c.mu.Unlock()
				// Force a reconnect; the fresh Subscribe re-requests
				// the hole, so the gap costs latency, not data.
				return progressed, protoErrf("sequence gap: got %d after %d", fr.Seq, c.lastSeq)
			}
			for _, q := range fr.Quotes {
				c.order.Check(q)
			}
			c.lastSeq = fr.Seq
			c.st.Batches++
			c.st.Quotes += len(fr.Quotes)
			c.mu.Unlock()
			for _, q := range fr.Quotes {
				select {
				case c.quotes <- q:
				case <-ctx.Done():
					return progressed, ctx.Err()
				}
			}
			progressed = true
		case *Heartbeat:
			// Liveness only; the read deadline was already refreshed.
		case *End:
			c.mu.Lock()
			behind := fr.Seq > c.lastSeq
			c.mu.Unlock()
			if behind {
				// End arrived but we hold an incomplete prefix (can
				// happen if the server trimmed our resume point);
				// reconnect to fetch the remainder.
				return progressed, protoErrf("end at seq %d but only %d delivered", fr.Seq, c.lastSeq)
			}
			return progressed, errEndOfFeed
		default:
			return progressed, protoErrf("unexpected frame %s", f.frameType())
		}
	}
}

// acceptUniverse installs the symbol table on first contact and
// verifies it is unchanged on reconnects.
func (c *Collector) acceptUniverse(symbols []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.uni == nil {
		u, err := taq.NewUniverse(symbols)
		if err != nil {
			return fmt.Errorf("feed: bad server universe: %w", err)
		}
		c.uni = u
		close(c.uniReady)
		return nil
	}
	if len(symbols) != c.uni.Len() {
		return ErrUniverseChanged
	}
	for i, s := range symbols {
		if c.uni.Symbol(i) != s {
			return ErrUniverseChanged
		}
	}
	return nil
}
