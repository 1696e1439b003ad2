package store_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pstore/internal/recovery"
	"pstore/internal/store"
	"pstore/internal/transport"
)

// These tests drive the one move path from outside the package: the same
// refusal table runs against the in-process topology and a two-node
// loopback cluster, whose coordinator checks moves against its own mirrors
// with the same validator.

func registerKV(eng *store.Engine) error {
	return eng.Register("put", func(tx *store.Tx) (any, error) {
		return nil, tx.Put("kv", tx.Key, tx.Args)
	})
}

func moveConfig() store.Config {
	return store.Config{
		MaxMachines:          4,
		PartitionsPerMachine: 2,
		Buckets:              240,
		QueueCapacity:        1024,
		InitialMachines:      4,
	}
}

func loadKV(t testing.TB, engines []*store.Engine, keys int) {
	t.Helper()
	for _, e := range engines {
		for i := 0; i < keys; i++ {
			if _, err := e.Execute("put", fmt.Sprintf("k-%d", i), i); err != nil && !errors.Is(err, store.ErrNotOwned) {
				t.Fatalf("loading k-%d: %v", i, err)
			}
		}
	}
}

// countingInjector counts fault decisions without failing any.
type countingInjector struct{ calls atomic.Int64 }

func (c *countingInjector) BeforeMove(store.MoveOp) error {
	c.calls.Add(1)
	return nil
}

// TestEngineMoveBucketsValidation runs one refusal table against the
// in-process topology and a loopback multi-node topology. Every case must
// end in the same error class and message in both modes, a refused move must
// leave the plan and the row count untouched, and only accepted moves may
// consume a fault decision.
func TestEngineMoveBucketsValidation(t *testing.T) {
	const keys = 400
	cfg := moveConfig()

	eng, err := store.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := registerKV(eng); err != nil {
		t.Fatal(err)
	}
	rm := recovery.NewManager(eng)
	eng.Start()
	t.Cleanup(eng.Stop)
	loadKV(t, []*store.Engine{eng}, keys)

	lb, err := transport.NewLoopback(transport.LoopbackConfig{
		Nodes:    2,
		Store:    cfg,
		Register: registerKV,
		DecodeRow: func(_ string, raw json.RawMessage) (any, error) {
			var v int
			return v, json.Unmarshal(raw, &v)
		},
		Recovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lb.Close() })
	loadKV(t, lb.Engines(), keys)

	// Initial plan: bucket b is owned by partition b % 8; machine 1 hosts
	// partitions 2 and 3 and lives on the second loopback node.
	type move func(buckets []int, from, to int, perRow, overhead time.Duration) (int, error)
	cases := []struct {
		name     string
		rollback bool
		buckets  []int
		from, to int
		want     error // nil: the move is accepted
	}{
		{name: "destination out of range", buckets: []int{0}, from: 0, to: 99, want: store.ErrInvalidMove},
		{name: "source out of range", buckets: []int{0}, from: -1, to: 0, want: store.ErrInvalidMove},
		{name: "negative bucket", buckets: []int{-1}, from: 0, to: 1, want: store.ErrInvalidMove},
		{name: "bucket past the end", buckets: []int{0, 240}, from: 0, to: 1, want: store.ErrInvalidMove},
		{name: "unowned bucket", buckets: []int{0, 1}, from: 0, to: 4, want: store.ErrInvalidMove},
		{name: "no-op", buckets: []int{1}, from: 5, to: 5},
		{name: "crash machine 1"},
		{name: "down source", buckets: []int{2}, from: 2, to: 0, want: store.ErrPartitionDown},
		{name: "down destination", buckets: []int{0}, from: 0, to: 3, want: store.ErrPartitionDown},
		{name: "rollback out of a down partition", rollback: true, buckets: []int{2, 10}, from: 2, to: 0},
	}
	run := func(topo transport.Topology) (string, int64) {
		inj := &countingInjector{}
		topo.SetFaultInjector(inj)
		fp := ""
		for _, tc := range cases {
			if tc.buckets == nil {
				if err := topo.Crash(1); err != nil {
					t.Fatalf("crash: %v", err)
				}
				continue
			}
			mv := move(topo.MoveBuckets)
			if tc.rollback {
				mv = topo.MoveBucketsRollback
			}
			plan, rows := fmt.Sprint(topo.Plan()), topo.TotalRows()
			n, err := mv(tc.buckets, tc.from, tc.to, 0, 0)
			fp += fmt.Sprintf("%s: rows %d err %v\n", tc.name, n, err)
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
				}
				if fmt.Sprint(topo.Plan()) != plan || topo.TotalRows() != rows {
					t.Errorf("%s: refused move changed the plan or the row count", tc.name)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			if tc.from != tc.to {
				for _, b := range tc.buckets {
					if own := topo.OwnerOf(b); own != tc.to {
						t.Errorf("%s: bucket %d owned by %d after the move, want %d", tc.name, b, own, tc.to)
					}
				}
			}
			if got := topo.TotalRows(); got != keys {
				t.Errorf("%s: TotalRows = %d, want %d", tc.name, got, keys)
			}
		}
		return fp, inj.calls.Load()
	}

	wantFP, wantCalls := run(transport.NewLocal(eng, rm))
	gotFP, gotCalls := run(lb.Remote())
	if gotFP != wantFP {
		t.Errorf("loopback refusals diverged from in-process:\n--- local ---\n%s--- remote ---\n%s", wantFP, gotFP)
	}
	// Only the accepted rollback reaches the injector.
	if wantCalls != 1 || gotCalls != 1 {
		t.Errorf("BeforeMove calls: local %d, remote %d, want 1 each", wantCalls, gotCalls)
	}
}

// FuzzMoveOut feeds arbitrary bucket lists and partition pairs through the
// engine's move step. It must never panic, a refused move must leave the
// plan and the row count unchanged, and an accepted one must conserve rows.
// Machine 1 is down, so the crash fencing and its rollback exemption are in
// play too.
func FuzzMoveOut(f *testing.F) {
	cfg := moveConfig()
	cfg.Buckets = 64
	eng, err := store.NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := registerKV(eng); err != nil {
		f.Fatal(err)
	}
	eng.Start()
	f.Cleanup(eng.Stop)
	loadKV(f, []*store.Engine{eng}, 200)
	if err := eng.Crash(1); err != nil {
		f.Fatal(err)
	}

	f.Add(int16(0), int16(4), []byte{0, 0, 8, 0}, false)
	f.Add(int16(2), int16(0), []byte{2, 0, 10, 0}, true)
	f.Add(int16(0), int16(2), []byte{16, 0}, false)
	f.Add(int16(0), int16(99), []byte{0xff, 0xff}, false)
	f.Add(int16(-1), int16(3), []byte{64, 0}, true)
	f.Fuzz(func(t *testing.T, from, to int16, raw []byte, rollback bool) {
		buckets := make([]int, len(raw)/2)
		for i := range buckets {
			buckets[i] = int(int16(binary.LittleEndian.Uint16(raw[2*i:])))
		}
		plan, rows := fmt.Sprint(eng.Plan()), eng.TotalRows()
		op := store.MoveOp{From: int(from), To: int(to), Buckets: buckets, Rollback: rollback}
		_, chunk, err := eng.MoveOut(op, 0, 0)
		if chunk != nil {
			t.Fatalf("%+v: an engine hosting every machine returned the chunk", op)
		}
		if err != nil && fmt.Sprint(eng.Plan()) != plan {
			t.Fatalf("%+v: refused (%v) but the plan changed", op, err)
		}
		if got := eng.TotalRows(); got != rows {
			t.Fatalf("%+v: TotalRows %d -> %d (err %v)", op, rows, got, err)
		}
	})
}
