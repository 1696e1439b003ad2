package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/client"
)

// loopStats are a load generator's outcome counts and latencies.
type loopStats struct {
	start                       time.Time
	attempted, failed, business atomic.Int64
	mu                          sync.Mutex
	done                        []done // completed transactions
	elapsed                     time.Duration
	gcCycles                    uint32 // during the window
	firstErr                    atomic.Value
}

// done is one completed transaction: when it returned, relative to the
// loop's start, and its latency in ms.
type done struct {
	at time.Duration
	ms float64
}

func newLoopStats() *loopStats {
	s := &loopStats{}
	s.gcCycles = numGC()
	s.start = time.Now()
	return s
}

// finish closes the window.
func (s *loopStats) finish() {
	s.elapsed = time.Since(s.start)
	s.gcCycles = numGC() - s.gcCycles
}

func numGC() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

func (s *loopStats) completed() int64 { return s.attempted.Load() - s.failed.Load() }

// observe files one transaction's outcome, d being its latency, and
// returns how many transactions the loop has attempted so far.
func (s *loopStats) observe(err error, d time.Duration) int64 {
	n := s.attempted.Add(1)
	switch {
	case err == nil:
	case isBusinessError(err):
		s.business.Add(1)
	default:
		if s.failed.Add(1) == 1 {
			s.firstErr.Store(err.Error())
		}
		return n
	}
	s.mu.Lock()
	s.done = append(s.done, done{time.Since(s.start), ms(d)})
	s.mu.Unlock()
	return n
}

// closedLoop runs one goroutine per client for dur; each sends its next
// transaction when the previous one returns. Client i draws from its own
// generator seeded from seed and i. after, when set, runs after every
// transaction with the running count.
func closedLoop(ctx context.Context, tr *tracer, clients []*client.Client, spec b2w.LoadSpec, mix b2w.Mix, seed int64,
	dur time.Duration, after func(n int64)) (*loopStats, error) {
	gens := make([]*generator, len(clients))
	for i := range clients {
		g, err := newGenerator(seed*1000+int64(i)+1, spec, mix)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	var wg sync.WaitGroup
	st := newLoopStats()
	for i, c := range clients {
		wg.Add(1)
		go func(c *client.Client, g *generator) {
			defer wg.Done()
			for ctx.Err() == nil {
				req := g.next()
				t0 := time.Now()
				_, err := c.Execute(context.Background(), req.txn, req.key, req.args)
				d := time.Since(t0)
				tr.record("client.exec", t0)
				n := st.observe(err, d)
				if after != nil {
					after(n)
				}
			}
		}(c, gens[i])
	}
	wg.Wait()
	st.finish()
	return st, nil
}

// e2eFromLoop fills the latency, throughput and outcome metrics of a load
// generator's window into the report. With maxSlices > 1 the window is cut
// into equal slices, as many as keep minSliceSamples completions in each
// on average but at most maxSlices, and txn_tps, txn_p50_ms and txn_p99_ms
// are the medians over the slices, so one disturbed stretch of a run does
// not move them; the fractions always cover the whole window.
func e2eFromLoop(rep *report, st *loopStats, maxSlices int) {
	attempted, failed := st.attempted.Load(), st.failed.Load()
	slices := max(1, min(maxSlices, len(st.done)/minSliceSamples))
	rep.attempted += attempted
	rep.failed += failed
	width := st.elapsed / time.Duration(slices)
	lat := make([][]float64, slices)
	all := make([]float64, 0, len(st.done))
	miss := failed
	for _, d := range st.done {
		k := min(int(d.at/width), slices-1)
		lat[k] = append(lat[k], d.ms)
		all = append(all, d.ms)
		if d.ms > sloMs {
			miss++
		}
	}
	var tps, p50, p99 []float64
	for _, l := range lat {
		sort.Float64s(l)
		tps = append(tps, float64(len(l))/width.Seconds())
		p50 = append(p50, percentile(l, 50))
		p99 = append(p99, percentile(l, 99))
	}
	rep.e2e["txn_tps"] = median(tps)
	rep.e2e["txn_p50_ms"] = median(p50)
	rep.e2e["txn_p99_ms"] = median(p99)
	rep.e2e["txn_ok_frac"] = 1 - float64(failed)/float64(attempted)
	rep.e2e["slo_met_frac"] = 1 - float64(miss)/float64(attempted)
	sort.Float64s(all)
	rep.info["window_p50_ms"] = percentile(all, 50)
	rep.info["window_p99_ms"] = percentile(all, 99)
	rep.info["window_tps"] = float64(len(all)) / st.elapsed.Seconds()
	rep.info["txn_fail_frac"] = float64(failed) / float64(attempted)
	rep.info["slo_miss_frac"] = float64(miss) / float64(attempted)
	rep.info["latency_samples"] = len(all)
	rep.info["window_slices"] = slices
	rep.info["slice_tps"] = tps
	rep.info["slice_p99_ms"] = p99
	// Interquartile range over median of the slices' throughput: how
	// steady the run was within itself.
	if m := median(tps); m > 0 {
		q1, q3 := quartiles(tps)
		rep.info["slice_tps_spread"] = (q3 - q1) / m
	}
	rep.info["window_gc_cycles"] = st.gcCycles
	rep.layer["b2w.business_err_frac"] = float64(st.business.Load()) / float64(attempted)
	if e, ok := st.firstErr.Load().(string); ok {
		rep.info["first_error"] = e
	}
}

// medianSetup builds a workload's initial state repeatedly (see
// moreRounds), tearing all but the last build down, and returns the last
// one with the median set-up time. The first round is timed from process
// start.
func medianSetup[T any](build func() (T, error), teardown func(T) error) (T, float64, error) {
	var zero T
	var times []float64
	first := time.Now()
	start := processStart
	for {
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if !moreRounds(len(times), first) {
			return v, median(times), nil
		}
		if err := teardown(v); err != nil {
			return zero, 0, err
		}
		// Collect the torn-down round's garbage outside the timed region.
		runtime.GC()
		start = time.Now()
	}
}
