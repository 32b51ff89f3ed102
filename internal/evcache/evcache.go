// Package evcache implements the device-DRAM embedding-vector cache: a
// deterministic, byte-budgeted LRU over vector-grained entries sitting
// between the Embedding Lookup Engine and the flash array.
//
// The controller's off-chip DRAM (Section V: 64 GB DDR4, 64-byte data width)
// is orders of magnitude faster than a C_EV flash read, and recommendation
// traffic is heavily skewed (Section III-B2, Fig. 4): a small hot set absorbs
// most lookups. Holding those hot vectors in device DRAM turns their reads
// into params.EVCacheHitCycles-cycle DRAM bursts — the same locality the
// paper's Fig. 14 sensitivity sweep and the RecSSD baseline's host cache
// exploit, but without crossing the host interface.
//
// Determinism contract (relied on by engine's lane-parallel lookup path):
// every state mutation — recency moves in Get, insertion and eviction in
// Reserve, port scheduling in Hit — happens on the caller's goroutine in the
// caller's order; Fill only deposits bytes into an already-placed entry and
// touches neither recency nor the index, so it may run in any phase of a
// batch without perturbing LRU state. The LRU itself is a list plus an index
// map that is never iterated: identical call sequences produce identical
// hits, misses, evictions and contents.
//
// MSHR semantics: a miss Reserves its entry immediately (at plan time), so a
// later lookup of the same key in the same batch Gets the reserved entry and
// is merged with the in-flight flash read instead of issuing its own — the
// engine resolves its data and ready time from the owning miss.
package evcache

import (
	"container/list"

	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Key identifies one embedding vector.
type Key struct {
	Table int
	Row   int64
}

// Stats counts cache activity. A Get that lands on a still-unfilled reserved
// entry (an in-flight miss merge) counts as a hit: the flash read it rides
// was already charged to the reserving miss.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Entry is one cached vector. Fill hands over a buffer the caller never
// reuses (the lookup engine reads each filling vector into a buffer of its
// own), so holding it costs no copy and stays valid across updates to the
// underlying row — the cache is invalidated explicitly on update.
type Entry struct {
	key    Key
	data   []byte
	filled bool
}

// Data returns the cached bytes (nil until Fill, and for timing-only fills).
func (e *Entry) Data() []byte { return e.data }

// Filled reports whether the entry's flash read has completed.
func (e *Entry) Filled() bool { return e.filled }

// Fill deposits the vector bytes read from flash. A nil data records
// presence only (timing-only runs). Fill does not touch recency or the
// index, so it is safe to call from any phase of a lookup batch.
func (e *Entry) Fill(data []byte) {
	e.data = data
	e.filled = true
}

// Cache is the device-DRAM EV cache. It is not safe for concurrent use; the
// lookup engine drives it from its sequential plan phase only.
type Cache struct {
	capEntries int
	evSize     int
	lru        *list.List // front = most recently used
	index      map[Key]*list.Element
	port       *sim.Resource // DRAM read port serving hit transfers
	hitOcc     sim.Time      // per-hit port occupancy (params.EVCacheHitCycles)
	stats      Stats
}

// New builds a cache bounded to budgetBytes of evSize-byte vectors. A budget
// below one vector yields a cache that never admits (every Get misses and
// Reserve returns nil).
func New(budgetBytes int64, evSize int) *Cache {
	if evSize <= 0 {
		panic("evcache: non-positive vector size")
	}
	c := &Cache{
		capEntries: int(budgetBytes / int64(evSize)),
		evSize:     evSize,
		lru:        list.New(),
		index:      make(map[Key]*list.Element),
		port:       sim.NewResource("evcache.dram"),
		hitOcc:     params.Duration(params.EVCacheHitCycles(evSize)),
	}
	if c.capEntries < 0 {
		c.capEntries = 0
	}
	return c
}

// CapEntries returns the entry capacity implied by the byte budget.
func (c *Cache) CapEntries() int { return c.capEntries }

// EVSize returns the vector size the budget was divided by.
func (c *Cache) EVSize() int { return c.evSize }

// Len returns the number of resident entries (filled or reserved).
func (c *Cache) Len() int { return c.lru.Len() }

// Get looks the key up, refreshing its recency and counting a hit or miss.
// The returned entry may still be unfilled: that is an in-flight miss from
// the current batch, which the caller merges with (MSHR) rather than
// re-reading.
func (c *Cache) Get(table int, row int64) (*Entry, bool) {
	if el, ok := c.index[Key{table, row}]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*Entry), true
	}
	c.stats.Misses++
	return nil, false
}

// Reserve inserts an unfilled entry for the key at the front, evicting from
// the back as needed, and returns it for a later Fill. It returns nil when
// the cache cannot hold a single vector. Reserving an already-present key
// refreshes it and returns the existing entry.
func (c *Cache) Reserve(table int, row int64) *Entry {
	key := Key{table, row}
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*Entry)
	}
	if c.capEntries <= 0 {
		return nil
	}
	for c.lru.Len() >= c.capEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(*Entry).key)
		c.stats.Evictions++
	}
	e := &Entry{key: key}
	c.index[key] = c.lru.PushFront(e)
	return e
}

// Invalidate drops the key's entry, reporting whether one was resident. The
// embedding store calls it when a vector is overwritten through the block
// path, so cached bytes never go stale.
func (c *Cache) Invalidate(table int, row int64) bool {
	el, ok := c.index[Key{table, row}]
	if !ok {
		return false
	}
	c.lru.Remove(el)
	delete(c.index, Key{table, row})
	return true
}

// Hit schedules one hit's DRAM burst on the cache port at time at and
// returns its completion. The port is FCFS, so hits issued in plan order
// serialize deterministically, modeling the single DRAM read channel.
func (c *Cache) Hit(at sim.Time) sim.Time {
	_, done := c.port.Acquire(at, c.hitOcc)
	return done
}

// ResetTime idles the DRAM port (between experiment phases).
func (c *Cache) ResetTime() { c.port.Reset() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters, keeping contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// HitRatio returns hits/(hits+misses), or 0 before any traffic.
func (c *Cache) HitRatio() float64 {
	total := c.stats.Hits + c.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.stats.Hits) / float64(total)
}
