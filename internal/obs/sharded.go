package obs

import "sync/atomic"

// shardedCounterPad separates neighboring shards onto distinct cache lines so
// single-writer increments never invalidate another worker's line (false
// sharing turns an uncontended add into a cross-core round trip).
const shardedCounterPad = 64

// ShardedCounter is a contention-free counter for phase-scoped parallel work:
// each worker owns one cache-line-padded shard it alone writes, and the total
// is folded once when the phase ends. Shard writes are atomic so a concurrent
// reader (the race detector) sees coherent values, but a
// shard never sees CAS contention — its writer is the only mutator.
//
// The zero value is not usable; construct with NewShardedCounter.
type ShardedCounter struct {
	shards []shardedSlot
}

type shardedSlot struct {
	n atomic.Int64
	_ [shardedCounterPad - 8]byte
}

// NewShardedCounter returns a counter with one shard per worker. workers
// below 1 is clamped to 1.
func NewShardedCounter(workers int) *ShardedCounter {
	if workers < 1 {
		workers = 1
	}
	return &ShardedCounter{shards: make([]shardedSlot, workers)}
}

// Add accumulates delta into the worker's shard. Callers must respect the
// single-writer discipline: at most one goroutine adds under a given worker
// index at a time.
//
//lint:hotpath
func (c *ShardedCounter) Add(worker int, delta int64) {
	c.shards[worker].n.Add(delta)
}

// FlushTo publishes the folded total to the collector under metric and
// resets every shard, so a reused counter starts the next phase at zero.
// No-op collector handling follows the package convention (nil is safe).
func (c *ShardedCounter) FlushTo(col *Collector, metric string) int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].n.Swap(0)
	}
	col.Count(metric, t)
	return t
}
