package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/client"
	"pstore/internal/metrics"
	"pstore/internal/recovery"
)

const (
	// oltpCheckpointEvery is the transaction cadence of checkpoints during
	// the measured window.
	oltpCheckpointEvery = 2500
	// restartTail is how many write transactions run after the last
	// checkpoint before a restart, so every cold start replays a tail of
	// the same size.
	restartTail = 2000
)

// runOLTPWire measures one durable node behind the HTTP front end. After
// set-up, a fixed tail of writes runs and the node is cold-restarted from
// its directory several times; the last restarted node then serves the
// B2W DefaultMix from closed-loop clients, with checkpoints on a fixed
// transaction cadence.
func runOLTPWire(ctx context.Context, o *options) (*report, error) {
	rep := newReport()
	build := func() (*node, error) {
		n, _, err := startNode(nodeConfig{disk: newDisk("node"), state: freshLoad, tr: o.tr})
		return n, err
	}
	n, setup, err := medianSetup(build, (*node).stop)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.e2e["setup_s"] = setup
	restart, n, err := measureRestarts(ctx, o, n, rep)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	rep.e2e["restart_s"] = restart
	defer n.stop()
	clients, err := dialAll(n, o.clients)
	if err != nil {
		return nil, err
	}
	defer closeAll(clients)

	// Checkpoints run beside the clients, one at a time, each time the
	// transaction count crosses a multiple of the cadence.
	var ckptMs sampler
	ckptReq := make(chan struct{}, 1)
	var ckptErr error
	var ckptWG sync.WaitGroup
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for range ckptReq {
			start := time.Now()
			if _, err := n.rm.Checkpoint(); err != nil && ckptErr == nil {
				ckptErr = err
			}
			o.tr.record("recovery.checkpoint", start)
			ckptMs.addDur(time.Since(start))
		}
	}()
	after := func(count int64) {
		if count%oltpCheckpointEvery == 0 {
			select {
			case ckptReq <- struct{}{}:
			default: // one is already pending
			}
		}
	}

	var rec *metrics.Recorder
	if o.tr != nil {
		rec = wholeRunRecorder()
		n.eng.SetRecorder(rec)
	}
	io := n.disk.io
	io0 := io.snapshot()
	c0 := n.eng.Counters()
	st, err := closedLoop(ctx, o.tr, clients, loadSpec(), b2w.DefaultMix(), o.seed, time.Duration(o.seconds)*time.Second, after)
	close(ckptReq)
	ckptWG.Wait()
	if err != nil {
		return nil, err
	}
	if ckptErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", ckptErr)
	}
	e2eFromLoop(rep, st, o.seconds)
	rep.e2e["machines_avg"] = float64(n.eng.ActiveMachines())
	storeLayer(rep, o.tr, rec, n.eng, c0)
	walLayer(rep, io, io0, st.attempted.Load())
	rep.layer["recovery.checkpoint_ms"] = median(ckptMs.sorted())
	rep.info["checkpoints"] = ckptMs.count()
	return rep, nil
}

func dialAll(n *node, count int) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < count; i++ {
		c, err := n.dial()
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// measureRestarts checkpoints the node, runs restartTail writes through
// the front end, then stops and cold-starts it repeatedly (see moreRounds). Each
// restart is timed from the stop to the reply of the first transaction,
// and each rebuilt engine must hold the content the node had before its
// first stop. It returns the median restart time and the last rebuilt
// node, still running; on error every node is stopped.
func measureRestarts(ctx context.Context, o *options, n *node, rep *report) (float64, *node, error) {
	fail := func(err error) (float64, *node, error) {
		n.stop()
		return 0, nil, err
	}
	if _, err := n.rm.Checkpoint(); err != nil {
		return fail(err)
	}
	g, err := newGenerator(o.seed*1000, loadSpec(), writeMix())
	if err != nil {
		return fail(err)
	}
	c, err := n.dial()
	if err != nil {
		return fail(err)
	}
	for i := 0; i < restartTail; i++ {
		req := g.next()
		_, err := c.Execute(ctx, req.txn, req.key, req.args)
		rep.attempted++
		if err != nil && !isBusinessError(err) {
			rep.failed++
		}
	}
	c.Close()
	want, _, err := fingerprint(n.eng)
	if err != nil {
		return fail(err)
	}
	var times []float64
	var cold recovery.ColdStartStats
	for first := time.Now(); moreRounds(len(times), first); {
		runtime.GC()
		start := time.Now()
		if err := n.stop(); err != nil {
			return 0, nil, err
		}
		next, cs, err := startNode(nodeConfig{disk: n.disk, state: coldStart, tr: o.tr})
		if err != nil {
			return 0, nil, err
		}
		n = next
		c, err := n.dial()
		if err != nil {
			return fail(err)
		}
		_, err = c.Execute(ctx, b2w.TxnGetStockQuantity, b2w.StockKey(0), nil)
		c.Close()
		if err != nil {
			return fail(fmt.Errorf("first transaction after restart: %w", err))
		}
		times = append(times, time.Since(start).Seconds())
		cold = cs
		got, _, err := fingerprint(n.eng)
		if err != nil {
			return fail(err)
		}
		rep.check(got == want, "restart %d: content fingerprint %s differs from %s before shutdown", len(times), got[:12], want[:12])
	}
	rep.layer["recovery.cold_start_ms"] = ms(cold.Duration)
	rep.layer["recovery.replayed"] = float64(cold.Replayed)
	rep.layer["recovery.log_bytes"] = float64(cold.LogBytes)
	return median(times), n, nil
}
