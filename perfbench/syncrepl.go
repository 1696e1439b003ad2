package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pstore/internal/metrics"
	"pstore/internal/transport"
	"pstore/internal/wal"
	"pstore/internal/wire"
)

// replPair is a primary shipping its WAL to a warm follower under
// synchronous commit, wired as pstore serve -sync-commit wires one.
type replPair struct {
	primary, follower *node
	sh                *transport.Shipper
	cancel            context.CancelFunc
	shipDone          chan error
}

// startReplPair loads a primary, syncs a fresh follower from its snapshot
// and starts the synchronous shipper between them.
func startReplPair(o *options) (*replPair, error) {
	p := &replPair{}
	var err error
	if p.primary, _, err = startNode(nodeConfig{disk: newDisk("primary"), state: freshLoad, tr: o.tr, repl: true}); err != nil {
		return nil, err
	}
	if p.follower, _, err = startNode(nodeConfig{disk: newDisk("follower"), state: emptyReplica, repl: true, replicaOf: p.primary.url}); err != nil {
		p.primary.stop()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	meta, frames, err := transport.NewPeer(p.primary.url).ReplSync(ctx, p.follower.url)
	if err == nil {
		err = p.follower.srv.InstallReplicaState(meta, frames)
	}
	if err == nil {
		p.sh, err = transport.NewShipper(transport.ShipperConfig{
			RM:       p.primary.rm,
			Follower: transport.NewPeer(p.follower.url),
			FromNode: 0, ToNode: -1,
			Start: meta.Cursor,
			// pstore serve polls at 1ms under synchronous commit.
			Interval:   time.Millisecond,
			SyncCommit: true,
		})
	}
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("follower sync: %w", err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	p.cancel = scancel
	p.shipDone = make(chan error, 1)
	go func() { p.shipDone <- p.sh.Run(sctx) }()
	return p, nil
}

// stopShipper stops the shipper, which disarms synchronous commit.
func (p *replPair) stopShipper() error {
	if p.cancel == nil {
		return nil
	}
	p.cancel()
	p.cancel = nil
	if err := <-p.shipDone; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

func (p *replPair) stop() error {
	errs := []error{p.stopShipper()}
	if p.follower != nil {
		errs = append(errs, p.follower.stop())
	}
	if p.primary != nil {
		errs = append(errs, p.primary.stop())
	}
	return errors.Join(errs...)
}

// runSyncRepl measures the synchronous-commit write path: closed-loop
// clients send B2W writes to the primary, each acknowledged only once the
// follower has it durably. After a drain the pair must agree, and the
// primary is then cold-restarted from its directory.
func runSyncRepl(ctx context.Context, o *options) (*report, error) {
	rep := newReport()
	p, setup, err := medianSetup(func() (*replPair, error) { return startReplPair(o) }, (*replPair).stop)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rep.e2e["setup_s"] = setup
	// One client: the commit barrier serialises commits behind the
	// shipper's poll, and a second client makes the batching flip between
	// regimes from run to run.
	o.clients = 1
	clients, err := dialAll(p.primary, o.clients)
	if err != nil {
		p.stop()
		return nil, err
	}
	defer closeAll(clients)

	// The traced run probes ReadShip and samples the shipper's lag while
	// the clients run.
	var rec *metrics.Recorder
	var lag, readShip sampler
	probeCtx, stopProbes := context.WithCancel(ctx)
	var probes sync.WaitGroup
	if o.tr != nil {
		rec = wholeRunRecorder()
		p.primary.eng.SetRecorder(rec)
		probes.Add(2)
		go every(probeCtx, &probes, 10*time.Millisecond, func() { lag.add(float64(p.sh.Lag())) })
		// The probe reads from one record behind the acknowledged cursor:
		// the cost of shipping one new record.
		go every(probeCtx, &probes, 500*time.Millisecond, func() {
			cur := p.sh.Acked()
			if cur.Rec == 0 {
				return
			}
			start := time.Now()
			if _, _, err := p.primary.rm.ReadShip(wal.ShipCursor{Seg: cur.Seg, Rec: cur.Rec - 1}, 64); err == nil {
				o.tr.record("recovery.readship", start)
				readShip.addDur(time.Since(start))
			}
		})
	}
	pio, fio := p.primary.disk.io, p.follower.disk.io
	pio0, fio0 := pio.snapshot(), fio.snapshot()
	shipped0 := p.sh.Shipped()
	c0 := p.primary.eng.Counters()
	st, err := closedLoop(ctx, o.tr, clients, loadSpec(), writeMix(), o.seed, time.Duration(o.seconds)*time.Second, nil)
	stopProbes()
	probes.Wait()
	if err != nil {
		p.stop()
		return nil, err
	}
	e2eFromLoop(rep, st, o.seconds)
	rep.e2e["machines_avg"] = float64(p.primary.eng.ActiveMachines())
	txns := st.attempted.Load()
	storeLayer(rep, o.tr, rec, p.primary.eng, c0)
	walLayer(rep, pio, pio0, txns)
	if o.tr != nil && txns > 0 {
		fio1 := fio.snapshot()
		rep.layer["wal.follower_sync_p50_ms"] = fio.syncP50Since(fio0)
		rep.layer["wal.follower_write_bytes_per_txn"] = float64(fio1.writeBytes-fio0.writeBytes) / float64(txns)
		rep.layer["transport.shipped_per_txn"] = float64(p.sh.Shipped()-shipped0) / float64(txns)
		rep.layer["transport.ship_lag_p99"] = lag.pct(99)
		rep.layer["recovery.readship_ms"] = median(readShip.sorted())
	}

	if err := drainAndCompare(ctx, p, rep); err != nil {
		p.stop()
		return nil, err
	}
	// Restart the primary alone from its directory.
	err = p.stopShipper()
	if err == nil {
		err = p.follower.stop()
		p.follower = nil
	}
	if err != nil {
		p.stop()
		return nil, err
	}
	restart, n, err := measureRestarts(ctx, o, p.primary, rep)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	if err := n.stop(); err != nil {
		return nil, err
	}
	rep.e2e["restart_s"] = restart
	return rep, nil
}

// drainAndCompare waits until the follower has applied everything durable
// on the primary, then checks that the follower's applied cursor equals the
// primary's durable cursor, that both hold the same content, and that
// neither WAL nor the shipper latched an error.
func drainAndCompare(ctx context.Context, p *replPair, rep *report) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	pp, fp := transport.NewPeer(p.primary.url), transport.NewPeer(p.follower.url)
	var pst, fst wire.ReplStatus
	for {
		var err error
		if pst, err = pp.ReplStatus(ctx); err != nil {
			return fmt.Errorf("primary status: %w", err)
		}
		if fst, err = fp.ReplStatus(ctx); err != nil {
			return fmt.Errorf("follower status: %w", err)
		}
		if fst.Applied == pst.Durable || ctx.Err() != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.check(fst.Applied == pst.Durable, "follower applied cursor %+v != primary durable cursor %+v", fst.Applied, pst.Durable)
	rep.check(p.primary.rm.Err() == nil, "primary WAL latched an error: %v", p.primary.rm.Err())
	rep.check(p.follower.rm.Err() == nil, "follower WAL latched an error: %v", p.follower.rm.Err())
	rep.check(p.sh.Err() == nil, "shipper latched an error: %v", p.sh.Err())
	want, _, err := fingerprint(p.primary.eng)
	if err != nil {
		return err
	}
	got, _, err := fingerprint(p.follower.eng)
	if err != nil {
		return err
	}
	rep.check(got == want, "follower content %s differs from primary %s", got[:12], want[:12])
	return nil
}

// every runs f each period until ctx ends, then marks wg done.
func every(ctx context.Context, wg *sync.WaitGroup, period time.Duration, f func()) {
	defer wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f()
		}
	}
}
