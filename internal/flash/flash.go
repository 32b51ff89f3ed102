// Package flash simulates a NAND flash array with the multi-level
// parallelism the paper exploits: channels, dies (LUNs), planes, blocks and
// pages, with one shared data bus per channel (Section IV-B2: "though flash
// arrays have a deep hierarchy of storage, all in/out data share one bus for
// each channel").
//
// Reading a page proceeds in two phases, matching Section V-A's timing
// model: the die flushes the flash cell array into its page buffer for
// Tflush = 0.7*Tpage, then the channel bus transfers data out. A whole-page
// read occupies the bus for Ttrans = 0.3*Tpage; a vector-grained read
// transfers only EVsize bytes, occupying the bus for EVsize/Psize * Ttrans.
// Vector-grained reads therefore both cut single-read latency and multiply
// bulk-read throughput, because the bus — the shared resource — carries no
// redundant bytes.
package flash

import (
	"fmt"
	"time"

	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Geometry describes the physical organisation of the array.
type Geometry struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int
}

// DefaultGeometry returns the Table II configuration: 32 GB over 4 channels
// of 4 dies, 2 planes per die, 4 KiB pages.
func DefaultGeometry() Geometry {
	g := Geometry{
		Channels:       params.NumChannels,
		DiesPerChannel: params.DiesPerChannel,
		PlanesPerDie:   params.PlanesPerDie,
		PagesPerBlock:  params.PagesPerBlock,
		PageSize:       params.PageSize,
	}
	pagesNeeded := params.SSDCapacityBytes / g.PageSize
	pagesPerPlane := pagesNeeded / (g.Channels * g.DiesPerChannel * g.PlanesPerDie)
	g.BlocksPerPlane = pagesPerPlane / g.PagesPerBlock
	return g
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("flash: %d channels", g.Channels)
	case g.DiesPerChannel <= 0:
		return fmt.Errorf("flash: %d dies per channel", g.DiesPerChannel)
	case g.PlanesPerDie <= 0:
		return fmt.Errorf("flash: %d planes per die", g.PlanesPerDie)
	case g.BlocksPerPlane <= 0:
		return fmt.Errorf("flash: %d blocks per plane", g.BlocksPerPlane)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: %d pages per block", g.PagesPerBlock)
	case g.PageSize <= 0:
		return fmt.Errorf("flash: page size %d", g.PageSize)
	}
	return nil
}

// TotalPages returns the number of physical pages in the array.
func (g Geometry) TotalPages() int {
	return g.Channels * g.DiesPerChannel * g.PlanesPerDie * g.BlocksPerPlane * g.PagesPerBlock
}

// CapacityBytes returns the raw capacity of the array.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// PPA is a physical page address (Fig. 7: Channel | Bank/LUN | Block | Page,
// with Col as the byte offset within the page).
type PPA struct {
	Channel, Die, Plane, Block, Page int
}

// FlatIndex linearises the PPA for the backing store.
func (g Geometry) FlatIndex(p PPA) uint64 {
	return uint64((((p.Channel*g.DiesPerChannel+p.Die)*g.PlanesPerDie+p.Plane)*g.BlocksPerPlane+p.Block)*g.PagesPerBlock + p.Page)
}

// FromFlat inverts FlatIndex.
func (g Geometry) FromFlat(idx uint64) PPA {
	i := int(idx)
	p := PPA{}
	p.Page = i % g.PagesPerBlock
	i /= g.PagesPerBlock
	p.Block = i % g.BlocksPerPlane
	i /= g.BlocksPerPlane
	p.Plane = i % g.PlanesPerDie
	i /= g.PlanesPerDie
	p.Die = i % g.DiesPerChannel
	i /= g.DiesPerChannel
	p.Channel = i
	return p
}

// Contains reports whether the PPA addresses a page inside the array.
func (g Geometry) Contains(p PPA) bool {
	return p.Channel >= 0 && p.Channel < g.Channels &&
		p.Die >= 0 && p.Die < g.DiesPerChannel &&
		p.Plane >= 0 && p.Plane < g.PlanesPerDie &&
		p.Block >= 0 && p.Block < g.BlocksPerPlane &&
		p.Page >= 0 && p.Page < g.PagesPerBlock
}

// Stats counts array activity for I/O-traffic accounting (Fig. 3, Table IV).
// The fault counters stay zero unless a FaultPlan is installed.
type Stats struct {
	PageReads        int64 // whole-page reads
	VectorReads      int64 // vector-grained reads
	PageWrites       int64
	Erases           int64 // block erases
	BytesTransferred int64 // bytes actually moved over channel buses
	BytesFlushed     int64 // bytes flushed from cells into page buffers
	ReadFaults       int64 // vector reads that needed >=1 ECC retry
	ECCRetries       int64 // total failed ECC attempts across all reads
	Uncorrectable    int64 // vector reads that exhausted the retry budget
}

// ChannelCounters attribute read traffic to one flash channel, for the
// observability layer's per-channel spans. They live outside Stats so the
// value-copy snapshot/delta pattern on Stats keeps working; the array holds
// one per channel, and lanes accumulate their own before merging in Close.
type ChannelCounters struct {
	Reads         int64 // page + vector reads issued on the channel
	Retries       int64 // failed ECC attempts on the channel
	Uncorrectable int64 // reads that exhausted the retry budget
}

// Add folds another snapshot into c.
func (c *ChannelCounters) Add(o ChannelCounters) {
	c.Reads += o.Reads
	c.Retries += o.Retries
	c.Uncorrectable += o.Uncorrectable
}

// Sub returns c minus o, for before/after deltas.
func (c ChannelCounters) Sub(o ChannelCounters) ChannelCounters {
	return ChannelCounters{
		Reads:         c.Reads - o.Reads,
		Retries:       c.Retries - o.Retries,
		Uncorrectable: c.Uncorrectable - o.Uncorrectable,
	}
}

// Array is the simulated flash array: data plus timing resources.
type Array struct {
	geo    Geometry
	dies   []*sim.Pool     // per channel: pool of die resources
	buses  []*sim.Resource // per channel: the shared data bus
	store  *PageStore
	stats  Stats
	chIO   []ChannelCounters // per-channel read traffic
	wear   map[wearKey]int   // per-block erase counts
	tFlush time.Duration
	tTrans time.Duration // full-page transfer

	// Deterministic read-fault injection (see fault.go). faultRNG holds one
	// splitmix64 state per channel; lanes advance only their own element.
	fault    FaultPlan
	faultRNG []uint64
}

// NewArray builds an array with the given geometry and an empty sparse
// page store.
func NewArray(geo Geometry) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		geo:    geo,
		store:  NewPageStore(geo.PageSize),
		chIO:   make([]ChannelCounters, geo.Channels),
		tFlush: params.Duration(params.FlushCycles),
		tTrans: params.Duration(params.PageTransferCycles),
	}
	for c := 0; c < geo.Channels; c++ {
		a.dies = append(a.dies, sim.NewPool(fmt.Sprintf("ch%d.die", c), geo.DiesPerChannel))
		a.buses = append(a.buses, sim.NewResource(fmt.Sprintf("ch%d.bus", c)))
	}
	return a, nil
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Stats returns a snapshot of the traffic counters.
func (a *Array) Stats() Stats { return a.stats }

// ResetStats zeroes the traffic counters, including the per-channel ones
// (timing state is preserved).
func (a *Array) ResetStats() {
	a.stats = Stats{}
	for i := range a.chIO {
		a.chIO[i] = ChannelCounters{}
	}
}

// ChannelIO returns a copy of the per-channel read counters, indexed by
// channel.
func (a *Array) ChannelIO() []ChannelCounters {
	return append([]ChannelCounters(nil), a.chIO...)
}

// AddChannelIO folds externally accumulated per-channel counters (a joined
// lane's) into the array. Callers must be single-threaded with respect to
// the array at that point.
func (a *Array) AddChannelIO(ch int, c ChannelCounters) { a.chIO[ch].Add(c) }

// ResetTime returns all timing resources to idle without touching data.
func (a *Array) ResetTime() {
	for i := range a.dies {
		a.dies[i].Reset()
		a.buses[i].Reset()
	}
}

// SetFiller installs the deterministic content generator used for pages
// that were never explicitly written (see PageStore).
func (a *Array) SetFiller(f Filler) { a.store.SetFiller(f) }

// checkPPA panics on out-of-range addresses: address-math bugs should fail
// loudly in a simulator.
func (a *Array) checkPPA(p PPA) {
	if !a.geo.Contains(p) {
		panic(fmt.Sprintf("flash: PPA out of range: %+v (geometry %+v)", p, a.geo))
	}
}

// ReadPage performs a whole-page read: die busy for Tflush, then the channel
// bus transfers the full page. It returns a copy of the page contents and
// the completion time.
func (a *Array) ReadPage(at sim.Time, p PPA) ([]byte, sim.Time) {
	a.checkPPA(p)
	die := a.dies[p.Channel].Get(p.Die)
	_, flushDone := die.Acquire(at, a.tFlush)
	_, done := a.buses[p.Channel].Acquire(flushDone, a.tTrans)
	a.stats.PageReads++
	a.stats.BytesFlushed += int64(a.geo.PageSize)
	a.stats.BytesTransferred += int64(a.geo.PageSize)
	a.chIO[p.Channel].Reads++
	return a.store.Read(a.geo.FlatIndex(p)), done
}

// ReadVector performs a vector-grained read (Section IV-B2): the die flushes
// the whole page into its buffer, but only size bytes starting at col are
// transferred over the bus; "we can drop the remaining data in this page due
// to the overall poor locality of the embedding workloads". The vector must
// not cross a page boundary; the embedding layout guarantees alignment.
//
// Under a FaultPlan the flush phase may fail ECC and retry (die busy for the
// extra attempts); a read that exhausts its retries returns a nil slice, the
// time at which the die gave up, and an error wrapping ErrUncorrectable.
// Without a plan the error is always nil.
func (a *Array) ReadVector(at sim.Time, p PPA, col, size int) ([]byte, sim.Time, error) {
	a.checkPPA(p)
	if col < 0 || size <= 0 || col+size > a.geo.PageSize {
		panic(fmt.Sprintf("flash: vector read [%d,%d) crosses page of size %d", col, col+size, a.geo.PageSize))
	}
	retries, fatal := a.sampleVectorFaults(p.Channel)
	die := a.dies[p.Channel].Get(p.Die)
	_, flushDone := die.Acquire(at, a.vectorFlushOccupancy(retries))
	a.stats.VectorReads++
	a.stats.BytesFlushed += int64(a.geo.PageSize)
	countVectorFaults(&a.stats, a.geo.PageSize, retries, fatal)
	countChannelFaults(&a.chIO[p.Channel], retries, fatal)
	if fatal {
		return nil, flushDone, fmt.Errorf("flash: ch%d die %d page %d: vector read uncorrectable after %d retries: %w",
			p.Channel, p.Die, p.Page, retries, ErrUncorrectable)
	}
	trans := params.Duration(params.VectorTransferCycles(size))
	_, done := a.buses[p.Channel].Acquire(flushDone, trans)
	a.stats.BytesTransferred += int64(size)
	return a.readRange(p, col, size), done, nil
}

// ReadPageTiming models a whole-page read without materialising the page
// contents. It is used by paths that account for page-granular traffic but
// only consume a sub-range of the data (which they then fetch with
// PeekRange, off the timing path).
func (a *Array) ReadPageTiming(at sim.Time, p PPA) sim.Time {
	a.checkPPA(p)
	die := a.dies[p.Channel].Get(p.Die)
	_, flushDone := die.Acquire(at, a.tFlush)
	_, done := a.buses[p.Channel].Acquire(flushDone, a.tTrans)
	a.stats.PageReads++
	a.stats.BytesFlushed += int64(a.geo.PageSize)
	a.stats.BytesTransferred += int64(a.geo.PageSize)
	a.chIO[p.Channel].Reads++
	return done
}

// EraseBlock erases a block: the die is busy for TErase and the block's
// wear counter increments. Contents of the block's pages are dropped from
// the store.
func (a *Array) EraseBlock(at sim.Time, p PPA) sim.Time {
	a.checkPPA(PPA{Channel: p.Channel, Die: p.Die, Plane: p.Plane, Block: p.Block})
	die := a.dies[p.Channel].Get(p.Die)
	_, done := die.Acquire(at, params.TErase)
	a.stats.Erases++
	key := wearKey{p.Channel, p.Die, p.Plane, p.Block}
	if a.wear == nil {
		a.wear = make(map[wearKey]int)
	}
	a.wear[key]++
	for page := 0; page < a.geo.PagesPerBlock; page++ {
		a.store.Drop(a.geo.FlatIndex(PPA{p.Channel, p.Die, p.Plane, p.Block, page}))
	}
	return done
}

// wearKey identifies a block for wear accounting.
type wearKey struct{ ch, die, plane, block int }

// Wear returns a block's erase count.
func (a *Array) Wear(p PPA) int {
	return a.wear[wearKey{p.Channel, p.Die, p.Plane, p.Block}]
}

// MaxWear returns the highest erase count across the array.
func (a *Array) MaxWear() int {
	max := 0
	for _, w := range a.wear {
		if w > max {
			max = w
		}
	}
	return max
}

// WritePage programs a page. Table creation happens off the latency-critical
// path, so the timing model charges only the bus transfer (host->buffer) and
// a program time equal to Tpage on the die.
func (a *Array) WritePage(at sim.Time, p PPA, data []byte) sim.Time {
	a.checkPPA(p)
	if len(data) > a.geo.PageSize {
		panic(fmt.Sprintf("flash: write of %d bytes exceeds page size %d", len(data), a.geo.PageSize))
	}
	_, busDone := a.buses[p.Channel].Acquire(at, a.tTrans)
	die := a.dies[p.Channel].Get(p.Die)
	_, done := die.Acquire(busDone, params.TPage)
	a.stats.PageWrites++
	a.stats.BytesTransferred += int64(len(data))
	a.store.Write(a.geo.FlatIndex(p), data)
	return done
}

// PeekPage returns a copy of the page contents without modelling any
// time. Used by tests and by functional-only paths.
func (a *Array) PeekPage(p PPA) []byte {
	a.checkPPA(p)
	return a.store.Read(a.geo.FlatIndex(p))
}

// PeekRange returns size bytes of a page starting at col, without modelling
// any time.
func (a *Array) PeekRange(p PPA, col, size int) []byte {
	a.checkPPA(p)
	if col < 0 || size <= 0 || col+size > a.geo.PageSize {
		panic(fmt.Sprintf("flash: peek range [%d,%d) outside page of size %d", col, col+size, a.geo.PageSize))
	}
	return a.readRange(p, col, size)
}

// readRange returns a fresh copy of size bytes of page p starting at col.
func (a *Array) readRange(p PPA, col, size int) []byte {
	buf := make([]byte, size)
	a.store.ReadRange(a.geo.FlatIndex(p), col, buf)
	return buf
}

// BusUtilization returns per-channel bus utilization over the horizon.
func (a *Array) BusUtilization(horizon sim.Time) []float64 {
	out := make([]float64, len(a.buses))
	for i, b := range a.buses {
		out[i] = b.Utilization(horizon)
	}
	return out
}

// Drained returns the time at which all channels and dies become idle.
func (a *Array) Drained() sim.Time {
	var m sim.Time
	for i := range a.dies {
		m = sim.Max(m, a.dies[i].MaxFreeAt())
		m = sim.Max(m, a.buses[i].FreeAt())
	}
	return m
}
