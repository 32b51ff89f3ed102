package ssd

import (
	"rmssd/internal/flash"
	"rmssd/internal/ftl"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// VectorRead is a translated, ready-to-schedule in-storage vector read: the
// output of the sequential prepare phase of a lane-parallel lookup batch.
// PrepareVectorRead performs everything ReadVectorAt does that touches
// shared device state — FTL translation, device counters, path-buffer
// bookkeeping — so the remaining flash scheduling can run on a per-channel
// lane goroutine with no shared writes.
type VectorRead struct {
	PPA    flash.PPA
	Col    int
	Size   int
	Mapped bool     // false: never-written page on a dynamic device; read zeros
	Start  sim.Time // earliest flash start time (issue + FTL translation)
}

// PrepareVectorRead translates one in-storage vector read without scheduling
// its flash time. Calling flash.Lane.ReadVector(r.Start, r.PPA, r.Col, buf)
// with an r.Size-byte buf afterwards — in the same per-channel order the
// device would have seen — reproduces ReadVectorAt's timing exactly;
// unmapped reads complete at r.Start with zero data and never touch flash,
// also exactly as ReadVectorAt. Counters (EVReads, path-buffer pushes) are updated here so
// their totals match the sequential path.
func (d *Device) PrepareVectorRead(at sim.Time, byteAddr int64, size int) VectorRead {
	lpn := byteAddr / int64(d.PageSize())
	col := int(byteAddr % int64(d.PageSize()))
	ppa, mapped := d.translateRead(lpn)
	d.stats.EVReads++
	r := VectorRead{PPA: ppa, Col: col, Size: size, Mapped: mapped, Start: at + params.Duration(params.FTLCycles)}
	if mapped {
		// The in-storage read's MUX admission and DEMUX routing happen
		// back to back in the virtual-time model (ReadVectorAt pushes and
		// pops around the flash call), so the buffer's occupancy profile
		// is preserved by pairing them here.
		d.path.Push(ftl.EVRead)
		d.path.Pop()
	}
	return r
}

// Channels returns the number of flash channels — the lane count of a
// parallel lookup schedule.
func (d *Device) Channels() int { return d.arr.Geometry().Channels }
