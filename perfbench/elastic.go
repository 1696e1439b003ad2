package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/cluster"
	"pstore/internal/elastic"
	"pstore/internal/migration"
	"pstore/internal/predictor"
	"pstore/internal/squall"
	"pstore/internal/store"
	"pstore/internal/workload"
)

const (
	// cycleMinutes is the controller cycle in trace minutes (serve -cycle).
	cycleMinutes = 5
	// maxMachines is the elastic cluster's ceiling (serve -max).
	maxMachines = 8
	// maxInFlight caps outstanding open-loop arrivals, as b2w.Driver caps
	// them at one partition queue's capacity.
	maxInFlight = 1 << 15
)

// elasticInputs are what a run generates from its seed before any system
// is built: the training month and the replayed day.
type elasticInputs struct {
	train, replay workload.Series
	minute        time.Duration
	rateScale     float64
}

// elasticSystem is a started cluster under the predictive controller.
type elasticSystem struct {
	c       *cluster.Cluster
	cancel  context.CancelFunc
	events  *eventLog
	pred    *timedPredictor
	ctrl    *timedController
	unsub   func()
	watched sync.WaitGroup
}

func (s *elasticSystem) stop() error {
	s.cancel()
	s.c.Stop()
	s.unsub()
	s.watched.Wait()
	return nil
}

// elasticEngineConfig sizes the engine as pstore serve does, with sojourn
// tracking on so queueing is measurable (it arms no refusal policy).
func elasticEngineConfig() store.Config {
	return store.Config{
		MaxMachines:          maxMachines,
		PartitionsPerMachine: 4,
		Buckets:              640,
		ServiceTime:          3 * time.Millisecond,
		QueueCapacity:        1 << 15,
		InitialMachines:      2,
		Overload:             store.OverloadConfig{Track: true},
	}
}

// genElasticInputs generates 28 training days plus the replayed day at
// pstore serve's default trace seed, so every run replays the same day (the
// run's seed draws the arrivals and transactions), and stretches the day
// over the run: at 30 seconds a trace minute lasts 20.8ms.
func genElasticInputs(seconds int) (elasticInputs, error) {
	full, err := workload.SyntheticB2W(workload.DefaultB2WConfig(1, 29))
	if err != nil {
		return elasticInputs{}, err
	}
	in := elasticInputs{
		train:  full.Slice(0, 28*workload.MinutesPerDay),
		replay: full.Slice(28*workload.MinutesPerDay, full.Len()),
		minute: time.Duration(seconds) * time.Second / workload.MinutesPerDay,
	}
	// Size the trace so its peak demands ~3/4 of the cluster, as serve does.
	cfg := elasticEngineConfig()
	perMachine := 0.8 * float64(cfg.PartitionsPerMachine) / cfg.ServiceTime.Seconds()
	in.rateScale = 0.75 * float64(cfg.MaxMachines) * perMachine * in.minute.Seconds() / in.replay.Max()
	return in, nil
}

// startElastic trains SPAR on the month and starts the cluster with the
// B2W dataset, configured as pstore serve -controller pstore.
func startElastic(ctx context.Context, o *options, in elasticInputs) (*elasticSystem, error) {
	cfg := elasticEngineConfig()
	perMachine := 0.8 * float64(cfg.PartitionsPerMachine) / cfg.ServiceTime.Seconds()
	qMax := perMachine * in.minute.Seconds() / in.rateScale
	model := migration.Model{Q: 0.65 / 0.8 * qMax, QMax: qMax, D: 10, P: cfg.PartitionsPerMachine}
	cycleTrain, err := in.train.Resample(cycleMinutes)
	if err != nil {
		return nil, err
	}
	period := workload.MinutesPerDay / cycleMinutes
	s := &elasticSystem{events: &eventLog{}}
	var model0 predictor.Predictor = predictor.NewSPAR(period, 7, 6)
	if o.tr != nil {
		s.pred = &timedPredictor{inner: model0, tr: o.tr}
		model0 = s.pred
	}
	online := predictor.NewOnline(model0, 0, 9*period)
	if err := online.ObserveAll(cycleTrain.Values); err != nil {
		return nil, err
	}
	pctrl := &elastic.Predictive{
		Model: model, Predictor: online,
		Horizon: 36, Inflation: 0.15, ScaleInConfirm: 6,
		MaxMachines: maxMachines, OnSpike: elastic.SpikeFastRate,
	}
	var ctrl elastic.Controller = pctrl
	if o.tr != nil {
		s.ctrl = &timedController{Predictive: pctrl, tr: o.tr, pred: s.pred}
		ctrl = s.ctrl
	}
	spec := loadSpec()
	c, err := cluster.New(cluster.Config{
		Engine:            cfg,
		Squall:            squall.DefaultConfig(),
		Controller:        ctrl,
		Cycle:             cycleMinutes * in.minute,
		RateScale:         in.rateScale,
		CycleTraceMinutes: cycleMinutes,
		RecorderWindow:    300 * time.Millisecond,
		Bootstrap:         func(eng *store.Engine) error { return b2w.Load(eng, spec) },
	})
	if err != nil {
		return nil, err
	}
	if err := b2w.Register(c.Engine()); err != nil {
		return nil, err
	}
	s.c = c
	events, unsub := c.Subscribe(4096)
	s.unsub = unsub
	s.watched.Add(1)
	go func() {
		defer s.watched.Done()
		for e := range events {
			s.events.observe(e)
		}
	}()
	cctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	if err := c.Start(cctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// eventLog tallies the cluster's move events.
type eventLog struct {
	started, finished, failed atomic.Int64
	moveS                     sampler
}

func (l *eventLog) observe(e cluster.Event) {
	switch e := e.(type) {
	case cluster.MoveStarted:
		l.started.Add(1)
	case cluster.MoveFinished:
		l.moveS.add(e.Duration.Seconds())
		l.finished.Add(1)
	case cluster.MoveFailed:
		l.failed.Add(1)
	}
}

// settled reports whether every started move has ended.
func (l *eventLog) settled() bool {
	return l.finished.Load()+l.failed.Load() >= l.started.Load()
}

// runElasticDay replays one B2W day against the elastic cluster as
// open-loop Poisson arrivals, each timed from when it was due.
func runElasticDay(ctx context.Context, o *options) (*report, error) {
	rep := newReport()
	o.clients = 0 // open loop
	var in elasticInputs
	build := func() (*elasticSystem, error) {
		var err error
		if in, err = genElasticInputs(o.seconds); err != nil {
			return nil, err
		}
		return startElastic(ctx, o, in)
	}
	s, setup, err := medianSetup(build, (*elasticSystem).stop)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.e2e["setup_s"] = setup
	if o.tr != nil {
		rep.layer["predictor.fit_ms"] = median(o.tr.durations("predictor.fit").sorted())
	}
	eng := s.c.Engine()
	rows0 := eng.TotalRows()

	st, late, err := openLoop(ctx, o, eng, in)
	if err != nil {
		s.stop()
		return nil, err
	}
	// Stop deciding, let the last move finish, then check the data.
	s.cancel()
	for deadline := time.Now().Add(30 * time.Second); !s.events.settled() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	_, rows, err := fingerprint(eng)
	if err != nil {
		rep.check(false, "row check after the day: %v", err)
	} else {
		rep.check(rows == eng.TotalRows(), "engine counts %d rows, a full scan finds %d", eng.TotalRows(), rows)
	}
	rep.check(s.events.failed.Load() == 0, "%d moves failed", s.events.failed.Load())
	rep.info["rows_before_day"] = rows0
	rep.info["rows_after_day"] = rows

	// The arrival rate follows the day, so slices would differ by design:
	// the day is reported whole.
	e2eFromLoop(rep, st, 1)
	rec := s.c.Recorder()
	rep.e2e["machines_avg"] = rec.AverageMachines()
	if o.tr != nil {
		elasticLayer(rep, o.tr, s, st, late)
	}
	if err := s.stop(); err != nil {
		return nil, err
	}

	// With no data directory a restart rebuilds the cluster from the
	// dataset and retrains the controller.
	restart, err := elasticRestarts(ctx, o, in)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	rep.e2e["restart_s"] = restart
	return rep, nil
}

// openLoop submits the day's arrivals on schedule, each on its own
// goroutine, and times each from its due time. late collects how far
// behind schedule each submission was.
func openLoop(ctx context.Context, o *options, eng *store.Engine, in elasticInputs) (*loopStats, *sampler, error) {
	arrivals, err := workload.NewArrivals(in.replay, in.minute, in.rateScale, o.seed+1)
	if err != nil {
		return nil, nil, err
	}
	g, err := newGenerator(o.seed+2, loadSpec(), b2w.DefaultMix())
	if err != nil {
		return nil, nil, err
	}
	ids := make(map[string]store.TxnID)
	for _, name := range b2w.AllTxns {
		id, ok := eng.Handle(name)
		if !ok {
			return nil, nil, fmt.Errorf("transaction %s not registered", name)
		}
		ids[name] = id
	}
	late := &sampler{}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	st := newLoopStats()
	start := st.start
	for {
		at, ok := arrivals.Next()
		if !ok {
			break
		}
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return nil, nil, ctx.Err()
			}
		}
		late.addDur(time.Since(due))
		req := g.next()
		select {
		case sem <- struct{}{}:
		default:
			// Shed at the in-flight cap, as the b2w driver does.
			st.observe(errors.New("shed at the generator's in-flight cap"), 0)
			continue
		}
		wg.Add(1)
		go func(id store.TxnID, req request, due time.Time) {
			defer func() { <-sem; wg.Done() }()
			t0 := time.Now()
			_, err := eng.ExecuteID(id, req.key, req.args)
			o.tr.record("store.exec", t0)
			st.observe(err, time.Since(due))
		}(ids[req.txn], req, due)
	}
	wg.Wait()
	st.finish()
	return st, late, nil
}

// elasticLayer fills the control-plane, store and generator metrics.
func elasticLayer(rep *report, tr *tracer, s *elasticSystem, st *loopStats, late *sampler) {
	rec := s.c.Recorder()
	// The cluster's recorder keeps 300ms windows: p50s are the median over
	// windows, p99s the worst window, the day's peak.
	var p50s, p99s, soj []float64
	for w := 0; w < rec.Windows(); w++ {
		if rec.Throughput(w) == 0 {
			continue
		}
		p50s = append(p50s, rec.Percentile(w, 50))
		p99s = append(p99s, rec.Percentile(w, 99))
		soj = append(soj, rec.SojournPercentile(w, 99))
	}
	rep.layer["store.exec_p50_ms"] = median(p50s)
	rep.layer["store.exec_p99_ms"] = maxOf(p99s)
	rep.layer["store.sojourn_p99_ms"] = maxOf(soj)
	oc := rec.OverloadCounters()
	rep.layer["store.refused"] = float64(oc.Refused())
	rep.layer["predictor.forecast_us_p50"] = 1000 * tr.durations("predictor.forecast").pct(50)
	ticks := tr.durations("elastic.tick").sorted()
	rep.layer["elastic.tick_ms_p50"] = percentile(ticks, 50)
	rep.layer["elastic.tick_ms_max"] = percentile(ticks, 100)
	rep.layer["planner.self_ms_p50"] = s.ctrl.selfP50()
	cs := s.c.Stats()
	rep.layer["cluster.decisions"] = float64(cs.Decisions)
	rep.layer["cluster.moves"] = float64(cs.Moves)
	rep.layer["cluster.emergency_moves"] = float64(cs.Emergencies)
	moves := s.events.moveS.sorted()
	rep.layer["squall.move_s_p50"] = percentile(moves, 50)
	rep.layer["squall.move_s_max"] = percentile(moves, 100)
	rep.layer["squall.chunk_retries"] = float64(rec.MigrationCounters().Retries)
	rep.layer["squall.move_failures"] = float64(s.events.failed.Load())
	rep.layer["gen.late_ms_p99"] = late.pct(99)
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// elasticRestarts stops and rebuilds the memory-only cluster
// repeatedly (see moreRounds), each timed to the reply of its first transaction,
// and returns the median.
func elasticRestarts(ctx context.Context, o *options, in elasticInputs) (float64, error) {
	var times []float64
	for first := time.Now(); moreRounds(len(times), first); {
		runtime.GC()
		start := time.Now()
		s, err := startElastic(ctx, &options{seconds: o.seconds}, in)
		if err != nil {
			return 0, err
		}
		_, err = s.c.Submit(b2w.TxnGetStockQuantity, b2w.StockKey(0), nil)
		times = append(times, time.Since(start).Seconds())
		s.stop()
		if err != nil {
			return 0, fmt.Errorf("first transaction after restart: %w", err)
		}
	}
	return median(times), nil
}

// timedPredictor times Fit and Forecast of the model handed to
// predictor.NewOnline.
type timedPredictor struct {
	inner predictor.Predictor
	tr    *tracer
	// forecastNs accumulates forecast time, so a controller tick can
	// subtract what it spent in the predictor.
	forecastNs atomic.Int64
}

func (p *timedPredictor) Name() string           { return p.inner.Name() }
func (p *timedPredictor) MinHistory(tau int) int { return p.inner.MinHistory(tau) }

func (p *timedPredictor) Fit(train []float64) error {
	start := time.Now()
	err := p.inner.Fit(train)
	p.tr.record("predictor.fit", start)
	return err
}

func (p *timedPredictor) Forecast(history []float64, tau int) (float64, error) {
	start := time.Now()
	v, err := p.inner.Forecast(history, tau)
	p.tr.record("predictor.forecast", start)
	p.forecastNs.Add(int64(time.Since(start)))
	return v, err
}

// timedController times each Tick of the predictive controller and the
// part of it not spent forecasting. Embedding keeps the observer
// interfaces the cluster looks for.
type timedController struct {
	*elastic.Predictive
	tr     *tracer
	pred   *timedPredictor
	selfMs sampler
}

func (c *timedController) Tick(machines int, reconfiguring bool, load float64) (*elastic.Decision, error) {
	f0 := c.pred.forecastNs.Load()
	start := time.Now()
	d, err := c.Predictive.Tick(machines, reconfiguring, load)
	c.tr.record("elastic.tick", start)
	c.selfMs.addDur(time.Since(start) - time.Duration(c.pred.forecastNs.Load()-f0))
	return d, err
}

func (c *timedController) selfP50() float64 { return c.selfMs.pct(50) }
