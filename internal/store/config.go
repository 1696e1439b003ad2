// Package store implements the shared-nothing, partitioned, main-memory
// OLTP engine P-Store runs on — the role H-Store plays in the paper
// (Section 2). Each data partition is owned by a single executor goroutine
// that processes transactions serially from a FIFO queue, so queueing delay
// plus service time reproduces H-Store's latency behaviour: flat while
// under capacity, exploding past saturation (Figure 7).
//
// Rows are grouped into a fixed number of virtual buckets by MurmurHash of
// their partitioning key; a partition plan maps buckets to partitions and
// is the unit of live migration. Moving a bucket occupies both the sending
// and receiving executor for a simulated transfer cost, exactly the
// interference mechanism that makes reconfiguration at peak load expensive
// in the paper (Figure 8).
package store

import (
	"fmt"
	"time"
)

// Config sizes the engine.
type Config struct {
	// MaxMachines is the largest cluster size that can ever be activated;
	// executors for machines beyond the active count exist but sit idle.
	MaxMachines int
	// PartitionsPerMachine is P, the number of data partitions (and
	// executor goroutines) per machine — the paper's deployment uses 6.
	PartitionsPerMachine int
	// Buckets is the number of virtual buckets the key space is hashed
	// into. More buckets mean finer migration granularity. Must be at
	// least MaxMachines*PartitionsPerMachine.
	Buckets int
	// ServiceTime is the simulated execution time of one transaction; the
	// paper likewise adds a small artificial delay per transaction so a
	// single server saturates at a realistic rate (Section 7).
	ServiceTime time.Duration
	// QueueCapacity is each partition executor's request queue size.
	QueueCapacity int
	// InitialMachines is the cluster size at startup.
	InitialMachines int
	// Overload arms the engine's server-side overload defenses: per-request
	// deadlines with admission control, CoDel-style shedding, and sojourn
	// tracking. The zero value disables all of them (see OverloadConfig).
	Overload OverloadConfig
	// DisableCtlLane routes control-plane requests (migration, checkpoints,
	// crash fencing) through the data queue instead of the priority lane.
	// It exists only as a regression knob: it reproduces the pre-lane
	// behavior where a saturated data backlog starves the scale-out escape
	// hatch, so tests can prove the lane is what prevents the starvation.
	DisableCtlLane bool
	// HostedMachines restricts this engine instance to a subset of the
	// cluster's machines in multi-process mode: transactions routed to a
	// partition of a non-hosted machine fail with ErrNotOwned instead of
	// executing, and their bucket data never lives here. All partitions
	// still exist (ids are cluster-global) so the plan, migration schedule
	// and fault decisions stay identical to single-process mode. Nil or
	// empty hosts every machine — the single-process reference oracle.
	HostedMachines []int
}

// DefaultConfig returns a configuration suitable for tests and examples: a
// small cluster with a service time that saturates one machine at a few
// hundred transactions per second, like the paper's slowed-down B2W mix.
func DefaultConfig() Config {
	return Config{
		MaxMachines:          10,
		PartitionsPerMachine: 6,
		Buckets:              1440,
		ServiceTime:          2 * time.Millisecond,
		QueueCapacity:        1 << 14,
		InitialMachines:      1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxMachines < 1 {
		return fmt.Errorf("store: MaxMachines %d must be at least 1", c.MaxMachines)
	}
	if c.PartitionsPerMachine < 1 {
		return fmt.Errorf("store: PartitionsPerMachine %d must be at least 1", c.PartitionsPerMachine)
	}
	if c.Buckets < c.MaxMachines*c.PartitionsPerMachine {
		return fmt.Errorf("store: Buckets %d must be at least MaxMachines*PartitionsPerMachine = %d",
			c.Buckets, c.MaxMachines*c.PartitionsPerMachine)
	}
	if c.ServiceTime < 0 {
		return fmt.Errorf("store: ServiceTime %v must be non-negative", c.ServiceTime)
	}
	if c.QueueCapacity < 1 {
		return fmt.Errorf("store: QueueCapacity %d must be at least 1", c.QueueCapacity)
	}
	if c.InitialMachines < 1 || c.InitialMachines > c.MaxMachines {
		return fmt.Errorf("store: InitialMachines %d must be in [1, %d]", c.InitialMachines, c.MaxMachines)
	}
	if err := c.Overload.Validate(); err != nil {
		return err
	}
	for _, m := range c.HostedMachines {
		if m < 0 || m >= c.MaxMachines {
			return fmt.Errorf("store: HostedMachines entry %d must be in [0, %d)", m, c.MaxMachines)
		}
	}
	return nil
}

// checkIDs refuses partition and bucket ids outside the geometry with
// ErrInvalidMove: they index the plan and the partition table, and node
// requests carry them in from outside the process.
func (c Config) checkIDs(buckets []int, parts ...int) error {
	for _, p := range parts {
		if n := c.MaxMachines * c.PartitionsPerMachine; p < 0 || p >= n {
			return fmt.Errorf("%w: partition %d out of range [0, %d)", ErrInvalidMove, p, n)
		}
	}
	for _, b := range buckets {
		if b < 0 || b >= c.Buckets {
			return fmt.Errorf("%w: bucket %d out of range [0, %d)", ErrInvalidMove, b, c.Buckets)
		}
	}
	return nil
}
