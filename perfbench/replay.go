package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"
	"time"

	"marketminer/internal/clean"
	"marketminer/internal/corr"
	"marketminer/internal/engine"
	"marketminer/internal/portfolio"
	"marketminer/internal/risk"
	"marketminer/internal/series"
	"marketminer/internal/strategy"
	"marketminer/internal/taq"
)

// serialReplay runs one day through clean → series → corr → strategy →
// risk on one goroutine, stage after stage, mirroring what each node of
// the Figure-1 DAG does with its messages. Its trades and book are the
// reference a pipeline run must reproduce exactly, and under a tracer
// its spans give the per-stage costs that the concurrent DAG hides.
func serialReplay(tr *tracer, parent int, uni *taq.Universe, quotes []taq.Quote, p strategy.Params, workers int) (*replay, error) {
	out := &replay{}
	sp := tr.begin(parent, "clean.Accept")
	f := clean.NewFilter(clean.Config{})
	kept := make([]taq.Quote, 0, len(quotes))
	for _, q := range quotes {
		if f.Accept(q) == clean.OK {
			kept = append(kept, q)
		}
	}
	tr.end(sp, int64(len(quotes)))
	out.quotesClean = len(kept)

	// Bar stage: fold quotes into the price grid, forward-filling each
	// stock's last mid, and complete an interval when a later one opens.
	sp = tr.begin(parent, "series.bar_fold")
	grid, err := series.NewGrid(p.DeltaS)
	if err != nil {
		return nil, err
	}
	n := uni.Len()
	pg := &series.PriceGrid{Grid: grid, Prices: make([][]float64, n)}
	last := make([]float64, n)
	bars := make([]*series.BarAccumulator, n)
	for i := range pg.Prices {
		pg.Prices[i] = make([]float64, grid.SMax)
		for s := range pg.Prices[i] {
			pg.Prices[i][s] = math.NaN()
		}
		last[i] = math.NaN()
		bars[i] = series.NewBarAccumulator(grid, uni.Symbol(i), 0)
	}
	var ticks []int
	cur, seen := 0, false
	flush := func(s int) {
		for ; cur < s && cur < grid.SMax; cur++ {
			for i := range last {
				pg.Prices[i][cur] = last[i]
			}
			ticks = append(ticks, cur)
		}
		cur = s
	}
	for _, q := range kept {
		s, ok := grid.Index(q.SeqTime)
		if !ok {
			continue
		}
		i, ok := uni.Index(q.Symbol)
		if !ok {
			continue
		}
		if !seen {
			cur, seen = s, true
		}
		if s > cur {
			flush(s)
		}
		last[i] = q.Mid()
		bars[i].Add(q)
	}
	if seen {
		flush(grid.SMax)
	}
	tr.end(sp, int64(len(kept)))

	online, err := corr.NewOnlineEngine(corr.EngineConfig{Type: p.Ctype, M: p.M, Workers: workers}, n)
	if err != nil {
		return nil, err
	}
	pairs := taq.AllPairs(n)
	trackers := make([]*strategy.Tracker, len(pairs))
	wins := make([]*series.Window, len(pairs))
	sums := make([]float64, len(pairs))
	for k, pr := range pairs {
		if trackers[k], err = strategy.NewTracker(p, pr.I, pr.J, 0); err != nil {
			return nil, err
		}
		wins[k] = series.NewWindow(p.W)
	}
	manager, err := risk.NewManager(risk.Limits{})
	if err != nil {
		return nil, err
	}
	type basket struct {
		key   int
		entry bool
		legs  []portfolio.Order
	}
	suppressed := map[int]bool{}
	rets := make([]float64, n)
	for _, s := range ticks {
		// Technical analysis: a return vector once every stock has
		// printed at s-1 and s.
		ready := s > 0
		for i := 0; ready && i < n; i++ {
			ready = !math.IsNaN(pg.Prices[i][s-1]) && !math.IsNaN(pg.Prices[i][s])
		}
		if !ready {
			continue
		}
		for i := 0; i < n; i++ {
			rets[i] = math.Log(pg.Prices[i][s] / pg.Prices[i][s-1])
		}
		sp = tr.begin(parent, "corr.Push")
		mx, err := online.Push(rets)
		tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		if mx == nil {
			continue
		}
		out.matrices++

		sp = tr.begin(parent, "strategy.Step")
		var baskets []basket
		steps := int64(0)
		for k := range pairs {
			c := mx.AtPair(k)
			w := wins[k]
			if w.Full() {
				sums[k] -= w.At(0)
			}
			w.Push(c)
			sums[k] += c
			if !w.Full() {
				continue
			}
			steps++
			trade, orders := trackers[k].Step(s, c, sums[k]/float64(p.W), pg)
			if len(orders) > 0 {
				baskets = append(baskets, basket{k, trade == nil, orders})
			}
		}
		tr.end(sp, steps)

		// Master: the risk manager books entries, suppresses the exits
		// of rejected entries and never blocks other exits.
		for _, b := range baskets {
			out.baskets++
			sp = tr.begin(parent, "risk.Apply")
			switch {
			case !b.entry && suppressed[b.key]:
				delete(suppressed, b.key)
			case !b.entry:
				err = manager.ApplyClosingPair(b.legs)
				out.orders += len(b.legs)
			default:
				err = manager.ApplyPair(b.legs)
				var rej *risk.ErrRejected
				if errors.As(err, &rej) {
					out.rejected += len(b.legs)
					suppressed[b.key] = true
					err = nil
				} else if err == nil {
					out.orders += len(b.legs)
				}
			}
			tr.end(sp, 1)
			if err != nil {
				return nil, err
			}
		}
	}
	for _, t := range trackers {
		out.trades = append(out.trades, t.Trades()...)
	}
	out.cashPnL = manager.Book().CashPnL()
	out.flat = manager.Book().Flat()
	return out, nil
}

// dayProbes measures the layers every workload exercises, on one of its
// days, under spans: the serial replay of the live stages with
// parameter set live, then the sweep's batch path (sample, backfill,
// return grid, one correlation pass per window length, every strategy
// evaluation of levels × types).
func dayProbes(ctx context.Context, tr *tracer, m map[string]float64, uni *taq.Universe, quotes []taq.Quote, levels []strategy.Params, types []corr.Type, live strategy.Params) error {
	root := tr.begin(0, "probe.serial_replay")
	rp, err := serialReplay(tr, root, uni, quotes, live, liveWorkers)
	tr.end(root, int64(len(quotes)))
	if err != nil {
		return err
	}

	root = tr.begin(0, "probe.batch_day")
	sp := tr.begin(root, "series.prep")
	cleaned, _ := clean.Clean(clean.Config{}, quotes)
	grid, err := series.NewGrid(levels[0].DeltaS)
	if err != nil {
		return err
	}
	sm := series.NewSampler(grid, uni)
	for _, q := range cleaned {
		sm.Add(q)
	}
	pg := sm.Finish()
	if err := series.Backfill(pg); err != nil {
		return err
	}
	returns := series.ReturnGrid(pg)
	tr.end(sp, 1)

	byM := map[int][]strategy.Params{}
	var ms []int
	for _, lv := range levels {
		if byM[lv.M] == nil {
			ms = append(ms, lv.M)
		}
		byM[lv.M] = append(byM[lv.M], lv)
	}
	pairs := taq.AllPairs(uni.Len())
	robust := &corr.RobustStats{}
	trades := 0
	for _, M := range ms {
		sp = tr.begin(root, "corr.ComputeSeriesMulti")
		css, err := corr.ComputeSeriesMulti(corr.EngineConfig{M: M, Workers: liveWorkers}, types, returns)
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		sp = tr.begin(root, "strategy.RunDay")
		evals := int64(0)
		merged := false
		for ti, ct := range types {
			cs := css[ti]
			// Robust treatments share one fit per window; count it once.
			if cs.Robust != nil && !merged {
				robust.Merge(cs.Robust)
				merged = true
			}
			for k, pr := range pairs {
				for _, lv := range byM[M] {
					ts, err := strategy.RunDay(lv.WithType(ct), cs.Corr[k], cs.FirstS, pg, pr.I, pr.J, 0)
					if err != nil {
						return err
					}
					trades += len(ts)
					evals++
				}
			}
		}
		tr.end(sp, evals)
	}
	tr.end(root, 1)

	sum := tr.summary()
	m["clean.ns_per_quote"] = perItem(sum, "clean.Accept")
	m["clean.reject_frac"] = 1 - float64(rp.quotesClean)/float64(len(quotes))
	m["series.bar_ns_per_quote"] = perItem(sum, "series.bar_fold")
	m["series.prep_ms_per_day"] = perSpan(sum, "series.prep") / 1e6
	m["corr.push_us"] = perSpan(sum, "corr.Push") / 1e3
	m["corr.series_ms_per_day"] = perSpan(sum, "corr.ComputeSeriesMulti") / 1e6
	m["corr.windows"] = float64(robust.Windows)
	m["corr.mean_iters"] = robust.MeanIters()
	if robust.Windows > 0 {
		m["corr.warm_hit_frac"] = float64(robust.WarmHits) / float64(robust.Windows)
	}
	m["corr.mean_active_lanes"] = robust.MeanActiveLanes()
	m["strategy.ns_per_eval"] = perItem(sum, "strategy.RunDay")
	m["strategy.step_ns"] = perItem(sum, "strategy.Step")
	m["strategy.trades"] = float64(trades)
	m["risk.ns_per_basket"] = perSpan(sum, "risk.Apply")
	m["risk.baskets"] = float64(rp.baskets)
	return nil
}

// dotEdge matches one edge line of engine.Graph.DOT.
var dotEdge = regexp.MustCompile(`^\s*"([^"]+)" -> "([^"]+)";`)

// nullGraph measures the engine runtime alone: a pass-through
// engine.Graph with the real run's topology (parsed from its DOT) in
// which every node receives and emits exactly the message counts the
// real run's NodeStats report. It returns wall ns per received message.
func nullGraph(ctx context.Context, tr *tracer, dot string, stats []engine.Stats) (float64, error) {
	hasInput := map[string]bool{}
	var edges [][2]string
	for _, line := range strings.Split(dot, "\n") {
		if e := dotEdge.FindStringSubmatch(line); e != nil {
			edges = append(edges, [2]string{e[1], e[2]})
			hasInput[e[2]] = true
		}
	}
	g := engine.NewGraph()
	ids := map[string]engine.NodeID{}
	var total int64
	for _, st := range stats {
		st := st
		total += st.Received
		if !hasInput[st.Name] {
			ids[st.Name] = g.Source(st.Name, func(ctx context.Context, emit engine.Emit) error {
				for k := int64(0); k < st.Emitted; k++ {
					if !emit(k) {
						return nil
					}
				}
				return nil
			})
			continue
		}
		var seen, sent int64
		id := g.Node(st.Name, 1, func(ctx context.Context, msg engine.Message, emit engine.Emit) error {
			seen++
			for want := seen * st.Emitted / max(st.Received, 1); sent < want; sent++ {
				emit(msg)
			}
			return nil
		})
		g.OnDrain(id, func(ctx context.Context, emit engine.Emit) error {
			for ; sent < st.Emitted; sent++ {
				emit(sent)
			}
			return nil
		})
		ids[st.Name] = id
	}
	for _, e := range edges {
		a, okA := ids[e[0]]
		b, okB := ids[e[1]]
		if !okA || !okB {
			return 0, fmt.Errorf("null graph: edge %s -> %s names a node without stats", e[0], e[1])
		}
		g.Connect(a, b, 256) // the pipeline's default edge buffer
	}
	sp := tr.begin(0, "engine.null_graph")
	t0 := time.Now()
	err := g.Run(ctx)
	wall := time.Since(t0)
	tr.end(sp, total)
	if err != nil {
		return 0, err
	}
	for i, st := range g.Stats() {
		if st != stats[i] {
			return 0, fmt.Errorf("null graph node %s carried %+v, the real run %+v", st.Name, st, stats[i])
		}
	}
	if total == 0 {
		return 0, errors.New("null graph: the real run carried no messages")
	}
	return float64(wall) / float64(total), nil
}
