package obs

import (
	"sync"
	"testing"
	"unsafe"
)

// TestShardedCounter exercises the single-writer discipline under real
// concurrency: each worker hammers its own shard, and the folded total must
// be exact after the joins.
func TestShardedCounter(t *testing.T) {
	const workers, perWorker = 8, 10000
	c := NewShardedCounter(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(w, 1)
			}
		}(w)
	}
	wg.Wait()

	col := NewCollector(0)
	if flushed := c.FlushTo(col, MAuditSweepSteals); flushed != workers*perWorker {
		t.Fatalf("FlushTo returned %d, want %d", flushed, workers*perWorker)
	}
	if again := c.FlushTo(col, MAuditSweepSteals); again != 0 {
		t.Fatalf("second FlushTo returned %d, want 0 after the reset", again)
	}
	snap := col.Snapshot()
	if snap.Counters[MAuditSweepSteals] != workers*perWorker {
		t.Fatalf("collector saw %d, want %d", snap.Counters[MAuditSweepSteals], workers*perWorker)
	}
}

// TestShardedCounterClamp pins the workers<1 clamp and nil-collector flush.
func TestShardedCounterClamp(t *testing.T) {
	c := NewShardedCounter(0)
	c.Add(0, 5)
	if c.FlushTo(nil, "x") != 5 {
		t.Fatal("flush to nil collector lost the count")
	}
}

// TestShardedCounterPadding pins the layout contract: shards are spaced a full
// cache line apart so two workers' shards never share one.
func TestShardedCounterPadding(t *testing.T) {
	if sz := unsafe.Sizeof(shardedSlot{}); sz != shardedCounterPad {
		t.Fatalf("shard slot is %d bytes, want %d", sz, shardedCounterPad)
	}
}
