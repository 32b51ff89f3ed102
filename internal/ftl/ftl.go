// Package ftl implements the flash translation layer of the simulated SSD.
//
// The paper applies "the linear mapping function ... in the FTL design, and
// each page data are scattered around the four DDR4 chips for higher
// throughput" (Section V-A). Accordingly, the FTL here maps logical page
// numbers to physical pages with channel-first striping: consecutive logical
// pages land on consecutive channels, then dies, then planes, so both
// sequential scans and bulk embedding-vector reads spread across all the
// parallelism the array offers.
//
// The FTL also owns the request-path bookkeeping of Fig. 5: a MUX admits
// requests from the two sources (conventional block I/O and embedding-vector
// reads) in round-robin order, and each admitted request's origin is
// recorded in the Path Buffer so the DEMUX on the return path can route
// page data to the NVMe controller and vector data to EV Sum.
package ftl

import (
	"fmt"

	"rmssd/internal/flash"
)

// SectorSize is the logical block (LBA) granularity presented to the host.
const SectorSize = 512

// FTL translates logical page numbers (LPNs) to physical page addresses.
type FTL struct {
	geo        flash.Geometry
	sectorsPer int // sectors per page
}

// New creates a linear-mapping FTL over the given geometry.
func New(geo flash.Geometry) *FTL {
	if err := geo.Validate(); err != nil {
		panic(fmt.Sprintf("ftl: %v", err))
	}
	return &FTL{geo: geo, sectorsPer: geo.PageSize / SectorSize}
}

// Geometry returns the underlying flash geometry.
func (f *FTL) Geometry() flash.Geometry { return f.geo }

// TotalPages returns the number of mappable logical pages.
func (f *FTL) TotalPages() int64 { return int64(f.geo.TotalPages()) }

// Translate maps a logical page number to its physical page address using
// the linear striped mapping.
func (f *FTL) Translate(lpn int64) flash.PPA {
	if lpn < 0 || lpn >= f.TotalPages() {
		panic(fmt.Sprintf("ftl: LPN %d out of range [0,%d)", lpn, f.TotalPages()))
	}
	g := f.geo
	i := lpn
	p := flash.PPA{}
	p.Channel = int(i % int64(g.Channels))
	i /= int64(g.Channels)
	p.Die = int(i % int64(g.DiesPerChannel))
	i /= int64(g.DiesPerChannel)
	p.Plane = int(i % int64(g.PlanesPerDie))
	i /= int64(g.PlanesPerDie)
	p.Page = int(i % int64(g.PagesPerBlock))
	i /= int64(g.PagesPerBlock)
	p.Block = int(i)
	debugLinearRoundTrip(f, lpn, p)
	return p
}

// Inverse maps a physical page address back to its logical page number.
func (f *FTL) Inverse(p flash.PPA) int64 {
	g := f.geo
	lpn := int64(p.Block)
	lpn = lpn*int64(g.PagesPerBlock) + int64(p.Page)
	lpn = lpn*int64(g.PlanesPerDie) + int64(p.Plane)
	lpn = lpn*int64(g.DiesPerChannel) + int64(p.Die)
	lpn = lpn*int64(g.Channels) + int64(p.Channel)
	return lpn
}

// LBAToPage converts a sector LBA to (logical page number, byte offset of
// the sector within the page). This is the Fig. 7 format conversion: the
// (LBA, logical size) pair becomes (PBA, physical size) with Col as the
// in-page read offset.
func (f *FTL) LBAToPage(lba int64) (lpn int64, col int) {
	if lba < 0 {
		panic(fmt.Sprintf("ftl: negative LBA %d", lba))
	}
	lpn, col = lba/int64(f.sectorsPer), int(lba%int64(f.sectorsPer))*SectorSize
	debugLBARoundTrip(f, lba, lpn, col)
	return lpn, col
}

// PageToLBA returns the first sector LBA of a logical page.
func (f *FTL) PageToLBA(lpn int64) int64 { return lpn * int64(f.sectorsPer) }

// SectorsPerPage returns the number of LBA sectors per flash page.
func (f *FTL) SectorsPerPage() int { return f.sectorsPer }

// RequestKind tags a request's origin for the Path Buffer.
type RequestKind uint8

const (
	// BlockIO marks a conventional NVMe block request.
	BlockIO RequestKind = iota
	// EVRead marks an embedding-vector read issued by the lookup engine.
	EVRead
)

// String implements fmt.Stringer.
func (k RequestKind) String() string {
	switch k {
	case BlockIO:
		return "block"
	case EVRead:
		return "ev"
	default:
		return fmt.Sprintf("RequestKind(%d)", uint8(k))
	}
}

// PathBuffer records the origin of in-flight requests per channel so the
// DEMUX can route returned data (Section IV-B3). In the virtual-time model
// the buffer is FIFO bookkeeping; its occupancy statistics feed the
// evaluation of MUX fairness.
type PathBuffer struct {
	fifo    []RequestKind
	maxUsed int
	pushes  [2]int64
}

// Push records an admitted request.
func (b *PathBuffer) Push(k RequestKind) {
	b.fifo = append(b.fifo, k)
	if len(b.fifo) > b.maxUsed {
		b.maxUsed = len(b.fifo)
	}
	b.pushes[k]++
}

// Pop removes and returns the oldest in-flight request's kind. It reports
// false when the buffer is empty. The rest shift down in place, so the
// backing array is kept: the device pushes and pops in pairs (depth at most
// one), and re-slicing past the head would make every few pushes allocate.
func (b *PathBuffer) Pop() (RequestKind, bool) {
	if len(b.fifo) == 0 {
		return 0, false
	}
	k := b.fifo[0]
	b.fifo = b.fifo[:copy(b.fifo, b.fifo[1:])]
	return k, true
}

// Depth returns the number of requests currently in flight.
func (b *PathBuffer) Depth() int { return len(b.fifo) }

// MaxDepth returns the high-water mark of in-flight requests.
func (b *PathBuffer) MaxDepth() int { return b.maxUsed }

// Admitted returns how many requests of each kind passed the MUX.
func (b *PathBuffer) Admitted(k RequestKind) int64 { return b.pushes[k] }

// Mux arbitrates between the block-I/O queue and the EV-read queue in
// round-robin order (Section IV-B2: "Since FTL is shared with conventional
// block I/O operations, we add a multiplexer (MUX) based on round-robin
// scheduling to serve data requests").
type Mux struct {
	last RequestKind
}

// Pick chooses which queue to serve next given queue occupancy. With both
// queues non-empty it alternates; otherwise it serves the non-empty queue.
func (m *Mux) Pick(blockWaiting, evWaiting bool) (RequestKind, bool) {
	switch {
	case blockWaiting && evWaiting:
		if m.last == BlockIO {
			m.last = EVRead
		} else {
			m.last = BlockIO
		}
		return m.last, true
	case blockWaiting:
		m.last = BlockIO
		return BlockIO, true
	case evWaiting:
		m.last = EVRead
		return EVRead, true
	default:
		return 0, false
	}
}
