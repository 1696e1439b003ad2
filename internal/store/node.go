package store

import (
	"errors"
	"fmt"
	"time"
)

// This file is the engine's multi-process surface. In multi-process mode one
// engine instance per OS process hosts a subset of the cluster's machines
// (Config.HostedMachines); partition ids stay cluster-global, so the plan,
// the migration schedule and every fault decision are identical to
// single-process mode. The source side of every move is MoveOut, which
// returns the chunk when the destination lives on another node; that node
// lands it with InstallBuckets, and ApplyOwnership broadcasts the flip to
// bystander nodes.

// ErrNotOwned reports that a request targeted a partition whose machine is
// not hosted on this engine instance. It is transient by nature — ownership
// may be mid-flip during a migration — so the wire layer maps it to a
// retryable status and node front ends forward the request to the hosting
// peer.
var ErrNotOwned = errors.New("store: partition not hosted on this node")

func notOwnedError(part int) error {
	return fmt.Errorf("%w: partition %d", ErrNotOwned, part)
}

// Hosted reports whether machine m's partitions execute on this engine
// instance. Single-process engines host every machine.
func (e *Engine) Hosted(m int) bool {
	if m < 0 || m >= len(e.hosted) {
		return false
	}
	return e.hosted[m]
}

// HostedMachines lists the machines hosted on this engine instance.
func (e *Engine) HostedMachines() []int {
	out := make([]int, 0, len(e.hosted))
	for m, h := range e.hosted {
		if h {
			out = append(out, m)
		}
	}
	return out
}

// InstallBuckets is the destination half of a cross-node move, landing a
// chunk MoveOut returned on another node: it merges the carried data into
// partition to (occupying its executor for the receive cost, half the send
// cost — the same split as an in-process move) and then flips local
// ownership to the installed partition. buckets is the full list the move
// covers — it can be wider than the buckets data carries, because empty
// buckets travel as ownership only, never as rows. Install before flip
// preserves the no-missing-data invariant: a transaction forwarded to this
// node after the flip queues behind the install in executor order. Installs
// are idempotent — re-delivering the same chunk adds no rows — so duplicated
// or reordered network delivery conserves TotalRows. Returns the number of
// rows carried by the chunk.
func (e *Engine) InstallBuckets(buckets []int, data BucketData, to int, perRow, overhead time.Duration) (int, error) {
	if err := e.cfg.checkIDs(buckets, to); err != nil {
		return 0, err
	}
	if e.foreign(to) {
		return 0, notOwnedError(to)
	}
	res := e.parts[to].call(installRequest(data, perRow, overhead))
	if res.err != nil {
		return 0, res.err
	}
	e.setOwner(buckets, to)
	return res.rows, nil
}

// ApplyOwnership reassigns buckets to a new owning partition in this
// engine's plan without moving any data — the ownership-flip broadcast a
// migration coordinator sends to nodes not involved in a chunk transfer, so
// every node's routing converges on the new placement.
func (e *Engine) ApplyOwnership(buckets []int, owner int) error {
	if err := e.cfg.checkIDs(buckets, owner); err != nil {
		return err
	}
	e.setOwner(buckets, owner)
	return nil
}
