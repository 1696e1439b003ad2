package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"pstore/internal/b2w"
	"pstore/internal/client"
	"pstore/internal/metrics"
	"pstore/internal/recovery"
	"pstore/internal/server"
	"pstore/internal/store"
	"pstore/internal/wal"
)

// loadSpec is pstore serve's B2W dataset at its default seed: 2400 carts,
// 600 checkouts and 1200 stocks. The dataset is the same in every run; the
// run's seed draws the transactions sent against it.
func loadSpec() b2w.LoadSpec {
	return b2w.LoadSpec{Carts: 2400, Checkouts: 600, Stocks: 1200, LinesPerCart: 3, Seed: 1}
}

// nodeEngineConfig sizes a durable node's engine as pstore serve sizes a
// node, with no simulated service time. Sojourn tracking is on so the
// store layer's queueing is measurable; it arms no refusal policy.
func nodeEngineConfig() store.Config {
	return store.Config{
		MaxMachines:          8,
		PartitionsPerMachine: 4,
		Buckets:              640,
		ServiceTime:          0,
		QueueCapacity:        1 << 15,
		InitialMachines:      2,
		Overload:             store.OverloadConfig{Track: true},
	}
}

// node is one durable P-Store node: engine, recovery manager over a data
// directory, and the HTTP front end on a loopback port.
type node struct {
	disk *disk
	eng  *store.Engine
	rm   *recovery.Manager
	srv  *server.Server
	url  string
	done chan error
}

// nodeState says how a node gets its data.
type nodeState int

const (
	freshLoad    nodeState = iota // load the B2W dataset and checkpoint it
	coldStart                     // rebuild from the data directory
	emptyReplica                  // wait for a replica sync
)

// disk is one node's data directory. It lives on the program's in-memory
// filesystem (wal.MemFS), reached through the wal.FS injection point and
// wrapped by timingFS: the WAL keeps its flush policy, calling Sync on
// every group commit, without the run-to-run noise of a shared disk. The
// directory outlives the node, so a restarted node cold-starts from it.
type disk struct {
	dir string
	fs  wal.FS
	io  *ioStats
}

func newDisk(dir string) *disk {
	io := &ioStats{}
	return &disk{dir: dir, fs: timingFS{wal.NewMemFS(1), io}, io: io}
}

// memFSName describes where the data directories live, for run metadata.
const memFSName = "wal.MemFS (in-process RAM)"

type nodeConfig struct {
	disk  *disk
	state nodeState
	tr    *tracer
	// repl builds the node plane a replication pair needs.
	repl      bool
	replicaOf string
}

// startNode builds and starts a node; cold reports the cold start when the
// node was rebuilt from its directory.
func startNode(cfg nodeConfig) (n *node, cold recovery.ColdStartStats, err error) {
	eng, err := store.NewEngine(nodeEngineConfig())
	if err != nil {
		return nil, cold, err
	}
	if err := b2w.Register(eng); err != nil {
		return nil, cold, err
	}
	rm, err := recovery.New(eng, recovery.Config{DataDir: cfg.disk.dir, FS: cfg.disk.fs})
	if err != nil {
		return nil, cold, err
	}
	eng.Start()
	n = &node{disk: cfg.disk, eng: eng, rm: rm}
	fail := func(err error) (*node, recovery.ColdStartStats, error) {
		n.stop()
		return nil, cold, err
	}
	switch cfg.state {
	case freshLoad:
		if err := b2w.Load(eng, loadSpec()); err != nil {
			return fail(err)
		}
		// Baseline checkpoint, as pstore serve takes one after loading.
		if _, err := rm.Checkpoint(); err != nil {
			return fail(err)
		}
	case coldStart:
		if !rm.HasColdState() {
			return fail(fmt.Errorf("data directory %s holds no state", cfg.disk.dir))
		}
		if cold, err = rm.ColdStart(); err != nil {
			return fail(err)
		}
	}
	decode := b2w.DecodeArgs
	if cfg.tr != nil {
		decode = func(txn string, raw json.RawMessage) (any, error) {
			start := time.Now()
			v, err := b2w.DecodeArgs(txn, raw)
			cfg.tr.record("server.decode", start)
			return v, err
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	n.url = "http://" + l.Addr().String()
	scfg := server.Config{Engine: eng, DecodeArgs: decode, Recovery: rm}
	if cfg.repl {
		url := n.url
		scfg.Node = &server.NodeConfig{
			ID: 0, Nodes: 1,
			Recovery:  rm,
			DecodeRow: b2w.DecodeRow,
			PeerURL:   func(int) string { return url },
			ReplicaOf: cfg.replicaOf,
		}
	}
	if n.srv, err = server.New(scfg); err != nil {
		l.Close()
		return fail(err)
	}
	n.done = make(chan error, 1)
	go func() { n.done <- n.srv.Serve(l) }()
	return n, cold, nil
}

// stop shuts the front end, the engine and the log down, in that order.
func (n *node) stop() error {
	var errs []error
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, n.srv.Shutdown(ctx))
		cancel()
		<-n.done
		n.srv = nil
	}
	n.eng.Stop()
	errs = append(errs, n.rm.Close())
	return errors.Join(errs...)
}

// dial opens one client with a single connection.
func (n *node) dial() (*client.Client, error) {
	return client.New(client.Config{Addr: n.url, MaxInFlight: 1})
}

// fingerprint digests the engine's content: the plan, the active machine
// count, and every row of every partition in key order. It also returns the
// number of rows seen and fails if a key lives in two partitions or a
// bucket sits on a partition the plan does not give it to.
func fingerprint(eng *store.Engine) (string, int, error) {
	cfg := eng.Config()
	plan := eng.Plan()
	h := sha256.New()
	fmt.Fprintf(h, "plan %v\nactive %d\n", plan, eng.ActiveMachines())
	seen := make(map[string]int)
	rows := 0
	for part := 0; part < cfg.MaxMachines*cfg.PartitionsPerMachine; part++ {
		snaps, err := eng.SnapshotPartition(part)
		if err != nil {
			return "", 0, fmt.Errorf("snapshot of partition %d: %w", part, err)
		}
		sort.Slice(snaps, func(i, j int) bool { return snaps[i].Bucket < snaps[j].Bucket })
		for _, s := range snaps {
			if len(s.Tables) > 0 && int(plan[s.Bucket]) != part {
				return "", 0, fmt.Errorf("bucket %d found on partition %d, plan says %d", s.Bucket, part, plan[s.Bucket])
			}
			for _, table := range sortedKeys(s.Tables) {
				rowsOf := s.Tables[table]
				for _, key := range sortedKeys(rowsOf) {
					id := table + "/" + key
					if p, dup := seen[id]; dup {
						return "", 0, fmt.Errorf("row %s on partitions %d and %d", id, p, part)
					}
					seen[id] = part
					// %+v prints a nil and an empty slice alike: the same
					// content, and decoding a logged row turns one into
					// the other.
					fmt.Fprintf(h, "%d %s %+v\n", s.Bucket, id, rowsOf[key])
					rows++
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), rows, nil
}

// wholeRunRecorder is a latency recorder whose first window spans any run,
// so window 0 holds every sample.
func wholeRunRecorder() *metrics.Recorder {
	rec, err := metrics.NewRecorder(time.Now(), 24*time.Hour)
	if err != nil {
		panic(err) // the window is a positive constant
	}
	return rec
}

// storeLayer fills the store, client, server and wire metrics of a node
// measured by a closed loop; c0 are the engine counters at the window's
// start.
func storeLayer(rep *report, tr *tracer, rec *metrics.Recorder, eng *store.Engine, c0 store.Counters) {
	if tr == nil {
		return
	}
	c := eng.Counters()
	rep.layer["store.refused"] = float64(c.Rejected - c0.Rejected + c.Shed - c0.Shed + c.DeadlineExceeded - c0.DeadlineExceeded)
	execP50 := 0.0
	if rec != nil {
		execP50 = rec.Percentile(0, 50)
		rep.layer["store.exec_p50_ms"] = execP50
		rep.layer["store.exec_p99_ms"] = rec.Percentile(0, 99)
		rep.layer["store.sojourn_p99_ms"] = rec.SojournPercentile(0, 99)
	}
	clientP50 := tr.durations("client.exec").pct(50)
	rep.layer["client.exec_p50_ms"] = clientP50
	rep.layer["wire.overhead_p50_ms"] = clientP50 - execP50
	rep.layer["server.decode_us_p50"] = 1000 * tr.durations("server.decode").pct(50)
}

// walLayer fills the primary WAL's per-transaction I/O over the window that
// started at snapshot from.
func walLayer(rep *report, io *ioStats, from ioSnapshot, txns int64) {
	if txns == 0 {
		return
	}
	to := io.snapshot()
	rep.layer["wal.syncs_per_txn"] = float64(to.syncs-from.syncs) / float64(txns)
	rep.layer["wal.sync_p50_ms"] = io.syncP50Since(from)
	rep.layer["wal.write_bytes_per_txn"] = float64(to.writeBytes-from.writeBytes) / float64(txns)
	rep.layer["wal.read_bytes_per_txn"] = float64(to.readBytes-from.readBytes) / float64(txns)
}
