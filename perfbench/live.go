package main

import (
	"context"
	"fmt"
	"time"

	"marketminer"
	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/market"
	"marketminer/internal/series"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

const (
	// liveWorkers bounds the correlation engine, so the DAG's front
	// stages and the engine share the host's two cores.
	liveWorkers = 2
	// paceCompression replays the paced day 4000× faster than real
	// time: one 30 s bar lasts 7.5 ms, the 6.5 h day about 5.9 s, and
	// the two cores run about two-thirds busy. At 5000:1 they ran about
	// 80% busy, where the median bar lag moved by a fifth of itself
	// from run to run and doubled while the hypervisor stole a sixth of
	// the host's CPU.
	paceCompression = 4000
	// pacerLateBound fails a paced operation whose generator woke more
	// than one compressed bar late at its 99th percentile: bar lag would
	// then measure a noisy host, not the pipeline. The generator shares
	// the process's two Ps with the pipeline, so about 1% of its
	// wake-ups wait behind a correlation push that holds both; that wait
	// is part of the load the pipeline imposes and stays well inside
	// the bound.
	pacerLateBound = 30 * time.Second / paceCompression
)

// live runs the Figure-1 DAG over one synthetic day. Closed loop
// (live-replay): 61 stocks, Pearson, the source emits the next quote as
// soon as the collector takes it. Open loop (live-paced): 40 stocks,
// Combined, each quote released at its SeqTime compressed
// paceCompression:1, and bar lag timed from the due time of the quote
// that closes the bar.
type live struct {
	paced  bool
	uni    *taq.Universe
	p      strategy.Params
	quotes []taq.Quote
	genMs  float64
	// closer[s] is the index of the quote whose arrival completes bar s
	// in the bar stage, or -1 for bars completed by the end of the day.
	closer   []int
	isCloser []bool
	emitAt   []int64 // ns since operation start; written for closers
	ref      *replay
	last     *marketminer.PipelineResult // of the latest operation
	lastLate []time.Duration             // pacer wake-up lateness of the latest operation
}

func newLive(paced bool) *live {
	p := strategy.DefaultParams()
	if paced {
		p.Ctype = corr.Combined
	}
	return &live{paced: paced, p: p}
}

func (l *live) setup(seed int64) error {
	syms := taq.DefaultSymbols()
	if l.paced {
		syms = syms[:40]
	}
	uni, err := taq.NewUniverse(syms)
	if err != nil {
		return err
	}
	gen, err := market.NewGenerator(marketConfig(uni, seed, 1))
	if err != nil {
		return err
	}
	t0 := time.Now()
	day, err := gen.GenerateDay(0)
	if err != nil {
		return err
	}
	l.genMs = float64(time.Since(t0)) / 1e6
	l.uni, l.quotes = uni, day.Quotes
	l.closer, l.isCloser, err = barClosers(uni, l.p.DeltaS, day.Quotes)
	l.emitAt = make([]int64, len(day.Quotes))
	return err
}

// barClosers finds, for every bar, the quote whose arrival makes the
// bar stage complete it: the first quote the cleaner accepts whose grid
// interval lies beyond the bar. The cleaner is deterministic, so a
// fresh filter with the pipeline's configuration accepts the same
// quotes the pipeline's will.
func barClosers(uni *taq.Universe, deltaS int, quotes []taq.Quote) ([]int, []bool, error) {
	grid, err := series.NewGrid(deltaS)
	if err != nil {
		return nil, nil, err
	}
	closer := make([]int, grid.SMax)
	for s := range closer {
		closer[s] = -1
	}
	isCloser := make([]bool, len(quotes))
	f := clean.NewFilter(clean.Config{})
	cur, seen := 0, false
	for i, q := range quotes {
		if f.Accept(q) != clean.OK {
			continue
		}
		s, ok := grid.Index(q.SeqTime)
		if _, known := uni.Index(q.Symbol); !ok || !known {
			continue
		}
		if !seen {
			cur, seen = s, true
		}
		for ; cur < s; cur++ {
			closer[cur] = i
			isCloser[i] = true
		}
	}
	return closer, isCloser, nil
}

func (l *live) config() marketminer.PipelineConfig {
	return marketminer.PipelineConfig{Universe: l.uni, Params: []strategy.Params{l.p}, Workers: liveWorkers}
}

func (l *live) reference(ctx context.Context) error {
	var err error
	l.ref, err = serialReplay(nil, 0, l.uni, l.quotes, l.p, liveWorkers)
	return err
}

func (l *live) run(ctx context.Context, tr *tracer) (op, error) {
	root := tr.begin(0, "live.pipeline")
	grid, err := series.NewGrid(l.p.DeltaS)
	if err != nil {
		return op{}, err
	}
	tapAt := make([]int64, grid.SMax)
	for s := range tapAt {
		tapAt[s] = -1
	}
	var late []time.Duration
	var base int64 // ns from t0 to the source's start
	due := func(q taq.Quote) int64 { return base + int64(q.SeqTime*1e9/paceCompression) }
	t0 := time.Now()
	src := func(ctx context.Context, emit func(taq.Quote) bool) error {
		base = int64(time.Since(t0))
		batch, n := tr.begin(root, "live.source_emit"), int64(0)
		for i, q := range l.quotes {
			if l.paced {
				at := due(q)
				if now := int64(time.Since(t0)); now < at {
					time.Sleep(time.Duration(at - now))
					late = append(late, time.Since(t0)-time.Duration(at))
				}
			}
			if l.isCloser[i] {
				tr.end(batch, n)
				batch, n = tr.begin(root, "live.source_emit"), 0
			}
			n++
			if !emit(q) {
				break
			}
			if l.isCloser[i] {
				// The collector has taken the quote: in the closed loop
				// this is its arrival.
				l.emitAt[i] = int64(time.Since(t0))
			}
		}
		tr.end(batch, n)
		return nil
	}
	cfg := l.config()
	cfg.ReturnsTap = func(s int, rets []float64) error {
		tapAt[s] = int64(time.Since(t0))
		tr.point(root, "live.returns_tap", 1)
		return nil
	}
	res, err := marketminer.RunLivePipelineFrom(ctx, cfg, src, 0)
	wall := time.Since(t0)
	tr.end(root, int64(len(l.quotes)))
	if err != nil {
		return op{}, err
	}
	l.last, l.lastLate = res, late
	if err := l.ref.matches(res); err != nil {
		return op{}, err
	}
	o := op{wall: wall, quotes: res.QuotesIn, evals: l.uni.NumPairs() * len(cfg.Params)}
	for s, at := range tapAt {
		c := l.closer[s]
		if at < 0 || c < 0 {
			continue
		}
		start := l.emitAt[c]
		if l.paced {
			start = due(l.quotes[c])
		}
		o.lagsMs = append(o.lagsMs, float64(at-start)/1e6)
	}
	if l.paced {
		if p99 := quantile(durationsMs(late), 0.99); p99 > float64(pacerLateBound)/1e6 {
			return o, fmt.Errorf("pacer woke %.3f ms late at p99, over its %v bound", p99, pacerLateBound)
		}
	}
	return o, nil
}

func (l *live) layers(ctx context.Context, tr *tracer, m map[string]float64) error {
	m["market.generate_ms_per_day"] = l.genMs
	if l.paced {
		m["pacer.late_p99_ms"] = quantile(durationsMs(l.lastLate), 0.99)
	}
	var msgs int64
	for _, st := range l.last.NodeStats {
		msgs += st.Received
	}
	m["engine.msgs"] = float64(msgs)
	nsPerMsg, err := nullGraph(ctx, tr, l.last.GraphDOT, l.last.NodeStats)
	if err != nil {
		return err
	}
	m["engine.ns_per_msg"] = nsPerMsg
	return dayProbes(ctx, tr, m, l.uni, l.quotes, []strategy.Params{l.p}, []corr.Type{l.p.Ctype}, l.p)
}

// replay is the outcome of serialReplay.
type replay struct {
	trades            []strategy.Trade
	quotesClean       int
	matrices, baskets int
	orders, rejected  int
	cashPnL           float64
	flat              bool
}

// matches checks a pipeline run against the serial replay: the same
// trades in the same order, the same book, the same counts.
func (r *replay) matches(res *marketminer.PipelineResult) error {
	if len(res.Trades) != 1 {
		return fmt.Errorf("pipeline returned %d trade lists, want 1", len(res.Trades))
	}
	got := res.Trades[0]
	if len(got) != len(r.trades) {
		return fmt.Errorf("pipeline made %d trades, serial replay %d", len(got), len(r.trades))
	}
	for i := range got {
		if got[i] != r.trades[i] {
			return fmt.Errorf("trade %d differs: pipeline %+v, serial replay %+v", i, got[i], r.trades[i])
		}
	}
	if res.QuotesClean != r.quotesClean || res.Matrices != r.matrices || res.Orders != r.orders ||
		res.OrdersRejected != r.rejected || res.CashPnL != r.cashPnL || res.BookFlat != r.flat {
		return fmt.Errorf("pipeline book (clean %d, matrices %d, orders %d/%d rejected, pnl %v, flat %v) differs from serial replay (%d, %d, %d/%d, %v, %v)",
			res.QuotesClean, res.Matrices, res.Orders, res.OrdersRejected, res.CashPnL, res.BookFlat,
			r.quotesClean, r.matrices, r.orders, r.rejected, r.cashPnL, r.flat)
	}
	return nil
}
