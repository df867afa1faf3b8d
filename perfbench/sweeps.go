package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"marketminer"
	"marketminer/internal/backtest"
	"marketminer/internal/corr"
	"marketminer/internal/farm"
	"marketminer/internal/feed"
	"marketminer/internal/market"
	"marketminer/internal/metrics"
	"marketminer/internal/sweep"
	"marketminer/internal/taq"
)

// sweepWorkers is the pool size of both sweep workloads: one worker per
// core of a two-core host.
const sweepWorkers = 2

// digests holds, per workload and seed, the SHA-256 of the result JSON
// (backtest.SaveJSON) that every run on that seed must reproduce.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic("perfbench: digests.json: " + err.Error()) // embedded at build time
	}
	d, ok := all[workload][fmt.Sprint(seed)]
	return d, ok
}

// sweepInputs is the set-up both sweep workloads share: the sweep
// configuration and its generated days, which the sweep regenerates
// itself. Set-up keeps their quote count and the first day's quotes,
// which the layer probes replay.
type sweepInputs struct {
	cfg    backtest.Config
	first  []taq.Quote
	quotes int
	genMs  float64
}

func (in *sweepInputs) generate(cfg backtest.Config) error {
	gen, err := market.NewGenerator(cfg.Market)
	if err != nil {
		return err
	}
	in.cfg, in.first, in.quotes = cfg, nil, 0
	t0 := time.Now()
	for d := 0; d < cfg.Market.Days; d++ {
		day, err := gen.GenerateDay(d)
		if err != nil {
			return err
		}
		if d == 0 {
			in.first = day.Quotes
		}
		in.quotes += len(day.Quotes)
	}
	in.genMs = float64(time.Since(t0)) / 1e6 / float64(cfg.Market.Days)
	return nil
}

func (in *sweepInputs) evals() int {
	return in.cfg.Market.Universe.NumPairs() * len(in.cfg.ResolvedLevels()) * len(in.cfg.ResolvedTypes()) * in.cfg.Market.Days
}

// probeDay runs the shared day probes on the sweep's first day, with the
// first parameter set standing in for the live stages.
func (in *sweepInputs) probeDay(ctx context.Context, tr *tracer, m map[string]float64) error {
	m["market.generate_ms_per_day"] = in.genMs
	levels, types := in.cfg.ResolvedLevels(), in.cfg.ResolvedTypes()
	return dayProbes(ctx, tr, m, in.cfg.Market.Universe, in.first, levels, types, levels[0].WithType(types[0]))
}

// marketConfig is the paper's default market over uni with uniform
// per-stock quote rates: the default draws each stock's rate from a
// seeded liquidity tier, which moves a day's quote count by ±8% from
// seed to seed, and the benchmark's seeds should vary the content of
// its inputs, not their size.
func marketConfig(uni *taq.Universe, seed int64, days int) market.Config {
	mc := market.DefaultConfig()
	mc.Universe, mc.Seed, mc.Days = uni, seed, days
	mc.LiquiditySpread = 1
	return mc
}

func resultDigest(r *backtest.Result) (string, []byte, error) {
	var b bytes.Buffer
	if err := backtest.SaveJSON(&b, r); err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), b.Bytes(), nil
}

// sweepRobust is the paper's default f64 sweep at 20 stocks × 3 days ×
// 14 levels × 3 correlation types through marketminer.RunBacktest.
type sweepRobust struct {
	sweepInputs
	seed      int64
	refDigest string
	refWall   time.Duration // the reference sweep's wall time at one worker
	plainWall time.Duration // the latest untraced operation's wall time
}

func (w *sweepRobust) setup(seed int64) error {
	uni, err := taq.NewUniverse(taq.DefaultSymbols()[:20])
	if err != nil {
		return err
	}
	w.seed = seed
	return w.generate(backtest.Config{Market: marketConfig(uni, seed, 3), Workers: sweepWorkers})
}

// reference fixes the digest every timed two-worker run must match:
// the one digests.json records for the seed, or else the digest of a
// one-worker run, which must agree because the engine and the pool are
// worker-count invariant.
func (w *sweepRobust) reference(ctx context.Context) error {
	if want, ok := recordedDigest("sweep-robust", w.seed); ok {
		w.refDigest = want
		return nil
	}
	return w.oneWorker(ctx)
}

// oneWorker runs the sweep with one worker, timing it and fixing (or,
// with a digest already fixed, checking) the reference digest.
func (w *sweepRobust) oneWorker(ctx context.Context) error {
	cfg := w.cfg
	cfg.Workers = 1
	t0 := time.Now()
	res, err := marketminer.RunBacktest(ctx, cfg)
	w.refWall = time.Since(t0)
	if err != nil {
		return err
	}
	got, _, err := resultDigest(res)
	if err != nil {
		return err
	}
	fmt.Printf("reference sweep-robust seed=%d digest=%s\n", w.seed, got)
	if w.refDigest != "" && got != w.refDigest {
		return fmt.Errorf("seed %d one-worker result digest %s, recorded %s", w.seed, got, w.refDigest)
	}
	w.refDigest = got
	return nil
}

func (w *sweepRobust) run(ctx context.Context, tr *tracer) (op, error) {
	root := tr.begin(0, "backtest.Run")
	cfg := w.cfg
	var lags []float64
	t0 := time.Now()
	last := t0
	day := tr.begin(root, "backtest.day")
	cfg.Progress = func(d, total, trades int) {
		now := time.Now()
		lags = append(lags, float64(now.Sub(last))/1e6)
		last = now
		tr.end(day, int64(trades))
		day = tr.begin(root, "backtest.day")
	}
	res, err := marketminer.RunBacktest(ctx, cfg)
	wall := time.Since(t0)
	tr.end(day, 0)
	tr.end(root, int64(w.evals()))
	if err != nil {
		return op{}, err
	}
	if tr == nil {
		w.plainWall = wall
	}
	got, _, err := resultDigest(res)
	if err != nil {
		return op{}, err
	}
	if got != w.refDigest {
		return op{}, fmt.Errorf("result digest %s, reference %s", got, w.refDigest)
	}
	return op{wall: wall, quotes: w.quotes, evals: w.evals(), lagsMs: lags}, nil
}

func (w *sweepRobust) layers(ctx context.Context, tr *tracer, m map[string]float64) error {
	if w.refWall == 0 {
		if err := w.oneWorker(ctx); err != nil {
			return err
		}
	}
	if runtime.NumCPU() >= 2 {
		m["sched.efficiency_2w"] = w.refWall.Seconds() / w.plainWall.Seconds() / 2
	}
	return w.probeDay(ctx, tr, m)
}

// farmPearson runs a Pearson-only sweep (61 stocks × 2 days × 14
// levels) through a farm.Coordinator and two farm.RunWorker clients in
// this process over loopback TCP, journaling into a scratch directory.
type farmPearson struct {
	sweepInputs
	dir       string
	ref       []byte // RunBacktest's result JSON for the same sweep
	plainWall time.Duration
	counters  map[string]int64 // farm counter deltas of the latest operation
}

var farmCounters = []string{farm.MetricLeasesGranted, farm.MetricLeaseReclaims, farm.MetricResultsDuplicate}

func (w *farmPearson) setup(seed int64) error {
	return w.generate(backtest.Config{
		Market:  marketConfig(taq.DefaultUniverse(), seed, 2),
		Types:   []corr.Type{corr.Pearson},
		Workers: sweepWorkers,
	})
}

func (w *farmPearson) reference(ctx context.Context) error {
	res, err := marketminer.RunBacktest(ctx, w.cfg)
	if err != nil {
		return err
	}
	_, w.ref, err = resultDigest(res)
	return err
}

func counterValues() map[string]int64 {
	out := map[string]int64{}
	for _, c := range metrics.Counters() {
		out[c.Name] = c.Value
	}
	return out
}

func (w *farmPearson) run(ctx context.Context, tr *tracer) (op, error) {
	dir, err := os.MkdirTemp(w.dir, "farm-")
	if err != nil {
		return op{}, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "farm.journal")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return op{}, err
	}
	plan, err := sweep.NewPlan(w.cfg, 0)
	if err != nil {
		l.Close()
		return op{}, err
	}
	perDay := plan.NumUnits() / plan.Days
	root := tr.begin(0, "farm.sweep")
	var (
		mu       sync.Mutex
		lags     []float64
		inFlight []int // result spans from OnUnit, closed by Progress in order
		t0       = time.Now()
		last     = t0
		boundary = perDay
	)
	c, err := farm.NewCoordinator(farm.CoordinatorConfig{
		Config:      w.cfg,
		JournalPath: journal,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if len(inFlight) > 0 {
				tr.end(inFlight[0], 1)
				inFlight = inFlight[1:]
			}
			if done >= boundary {
				now := time.Now()
				lags = append(lags, float64(now.Sub(last))/1e6)
				last, boundary = now, boundary+perDay
			}
		},
	})
	if err != nil {
		l.Close()
		return op{}, err
	}
	before := counterValues()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < sweepWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A worker's error after the sweep completed (the cancel
			// below) is expected; an incomplete sweep fails the check.
			_, _ = farm.RunWorker(wctx, farm.WorkerConfig{
				Config:        w.cfg,
				Name:          fmt.Sprintf("bench-%d", i),
				Addr:          l.Addr().String(),
				EngineWorkers: 1,
				OnUnit: func(int) {
					if tr == nil {
						return
					}
					mu.Lock()
					inFlight = append(inFlight, tr.begin(root, "farm.result_ack"))
					mu.Unlock()
				},
			})
		}(i)
	}
	st, err := c.Serve(ctx, l)
	wall := time.Since(t0)
	tr.end(root, int64(w.evals()))
	cancel()
	wg.Wait()
	if err != nil {
		return op{}, err
	}
	if tr == nil {
		w.plainWall = wall
	}
	after := counterValues()
	w.counters = map[string]int64{}
	for _, k := range farmCounters {
		w.counters[k] = after[k] - before[k]
	}
	if n := w.counters[farm.MetricLeaseReclaims]; n > 0 {
		return op{}, fmt.Errorf("%d lease reclaims in a fault-free farm run", n)
	}
	if st.UnitsExecuted != st.UnitsTotal {
		return op{}, fmt.Errorf("farm executed %d of %d units", st.UnitsExecuted, st.UnitsTotal)
	}
	merged, _, err := sweep.MergeFiles([]string{journal})
	if err != nil {
		return op{}, err
	}
	_, got, err := resultDigest(merged)
	if err != nil {
		return op{}, err
	}
	if !bytes.Equal(got, w.ref) {
		return op{}, fmt.Errorf("merged farm result differs from RunBacktest of the same sweep")
	}
	return op{wall: wall, quotes: w.quotes, evals: w.evals(), lagsMs: lags}, nil
}

func (w *farmPearson) layers(ctx context.Context, tr *tracer, m map[string]float64) error {
	m["farm.result_ack_ms_p50"] = tr.medianMs("farm.result_ack")
	m["farm.leases_granted"] = float64(w.counters[farm.MetricLeasesGranted])
	m["farm.lease_reclaims"] = float64(w.counters[farm.MetricLeaseReclaims])
	m["farm.results_duplicate"] = float64(w.counters[farm.MetricResultsDuplicate])
	if err := w.groupProbe(ctx, tr, m); err != nil {
		return err
	}
	return w.probeDay(ctx, tr, m)
}

// groupProbe runs every group of the sweep in-process, without a
// network: sweep.GroupRunner.RunGroup at one engine worker (as a farm
// worker runs it), each unit's result encoded and decoded as a feed
// Result frame and appended to a scratch journal.
func (w *farmPearson) groupProbe(ctx context.Context, tr *tracer, m map[string]float64) error {
	runner, err := sweep.NewGroupRunner(w.cfg, 0)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.journal")
	j, _, _, err := sweep.OpenJournal(path, sweep.PlanHeader(runner, sweep.Shard{Index: 0, Count: 1}))
	if err != nil {
		return err
	}
	plan := runner.Plan()
	var frame bytes.Buffer
	enc, dec := feed.NewEncoder(&frame, nil), feed.NewDecoder(&frame)
	frameBytes, units := 0, 0
	root := tr.begin(0, "probe.farm_groups")
	for gid := 0; gid < plan.NumGroups(); gid++ {
		var gunits []sweep.Unit
		for p := 0; p < plan.NumParams(); p++ {
			gunits = append(gunits, sweep.Unit{Day: gid / plan.NumBlocks(), Block: gid % plan.NumBlocks(), Param: p})
		}
		sp := tr.begin(root, "farm.RunGroup")
		err := runner.RunGroup(ctx, gid, gunits, 1, func(e sweep.Entry, trades int64) error {
			units++
			s := tr.begin(sp, "feed.WriteResult")
			err := enc.WriteResult(&feed.Result{Unit: uint64(e.U), Rets: e.Rets})
			tr.end(s, 1)
			if err != nil {
				return err
			}
			frameBytes += frame.Len()
			s = tr.begin(sp, "feed.Read")
			f, err := dec.Read()
			tr.end(s, 1)
			if err != nil {
				return err
			}
			if r, ok := f.(*feed.Result); !ok || r.Unit != uint64(e.U) {
				return fmt.Errorf("feed round trip of unit %d returned %T", e.U, f)
			}
			s = tr.begin(sp, "sweep.Journal.Append")
			err = j.Append(e)
			tr.end(s, 1)
			return err
		})
		tr.end(sp, int64(len(gunits)))
		if err != nil {
			j.Close()
			return err
		}
	}
	tr.end(root, int64(units))
	if err := j.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	sum := tr.summary()
	groups := sum["farm.RunGroup"]
	m["farm.group_compute_ms"] = float64(groups.SelfNs) / float64(groups.Spans) / 1e6
	m["farm.overhead_frac"] = 1 - float64(groups.SelfNs)/(sweepWorkers*float64(w.plainWall))
	m["feed.result_encode_us"] = perSpan(sum, "feed.WriteResult") / 1e3
	m["feed.result_decode_us"] = perSpan(sum, "feed.Read") / 1e3
	m["feed.result_bytes"] = float64(frameBytes) / float64(units)
	m["sweep.journal_append_us"] = perSpan(sum, "sweep.Journal.Append") / 1e3
	m["sweep.journal_bytes_per_unit"] = float64(fi.Size()) / float64(units)
	return nil
}
