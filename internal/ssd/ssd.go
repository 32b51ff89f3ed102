// Package ssd assembles the simulated NVMe SSD from its parts: the flash
// array, the FTL and the NVMe controller front-end. It exposes two request
// paths, mirroring Fig. 5:
//
//   - the conventional block path (ReadPage/WritePage), used by the file
//     system underneath the host baselines, charged NVMe command and
//     completion costs and calibrated to Table II's 45K random-4K IOPS at
//     queue depth 1;
//   - the in-storage path (ReadVectorAt/ReadPageInternal), used by the
//     embedding engines, which bypasses the NVMe controller entirely and
//     pays only FTL translation plus flash time.
package ssd

import (
	"fmt"

	"rmssd/internal/flash"
	"rmssd/internal/ftl"
	"rmssd/internal/params"
	"rmssd/internal/sim"
)

// Stats aggregates device-level counters used for I/O-traffic reporting.
type Stats struct {
	BlockReads    int64
	BlockWrites   int64
	EVReads       int64
	HostBytesRead int64 // bytes returned across the NVMe interface
}

// Device is the simulated SSD.
type Device struct {
	arr   *flash.Array
	ftl   *ftl.FTL
	dyn   *ftl.DynamicFTL // non-nil when page-mapped (see dynamic.go)
	nvme  *sim.Resource
	path  ftl.PathBuffer
	stats Stats
}

// New builds a device with the given flash geometry.
func New(geo flash.Geometry) (*Device, error) {
	arr, err := flash.NewArray(geo)
	if err != nil {
		return nil, err
	}
	return &Device{arr: arr, ftl: ftl.New(geo), nvme: sim.NewResource("nvme")}, nil
}

// MustNew is New, panicking on error; for configurations known statically.
func MustNew(geo flash.Geometry) *Device {
	d, err := New(geo)
	if err != nil {
		panic(fmt.Sprintf("ssd: %v", err))
	}
	return d
}

// Default returns a device with the Table II geometry.
func Default() *Device { return MustNew(flash.DefaultGeometry()) }

// Array exposes the flash array (for fillers and traffic stats).
func (d *Device) Array() *flash.Array { return d.arr }

// FTL exposes the translation layer.
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes device and flash counters.
func (d *Device) ResetStats() {
	d.stats = Stats{}
	d.arr.ResetStats()
}

// ResetTime idles every timing resource without touching stored data.
func (d *Device) ResetTime() {
	d.arr.ResetTime()
	d.nvme.Reset()
}

// PageSize returns the device page size in bytes.
func (d *Device) PageSize() int { return d.arr.Geometry().PageSize }

// TotalPages returns the number of addressable logical pages.
func (d *Device) TotalPages() int64 { return d.ftl.TotalPages() }

// ReadPage serves a block-path page read: NVMe command processing, FTL
// translation, flash page read, completion. Returns the data and the time
// the host observes completion. On a dynamic device, never-written pages
// return zeros straight from the controller without touching flash.
func (d *Device) ReadPage(at sim.Time, lpn int64) ([]byte, sim.Time) {
	_, cmdDone := d.nvme.Acquire(at, params.NVMeCmdCost)
	ppa, mapped := d.translateRead(lpn)
	d.stats.BlockReads++
	d.stats.HostBytesRead += int64(d.PageSize())
	if !mapped {
		return make([]byte, d.PageSize()), cmdDone + params.NVMeCompletionCost
	}
	d.path.Push(ftl.BlockIO)
	data, flashDone := d.arr.ReadPage(cmdDone+params.Duration(params.FTLCycles), ppa)
	d.path.Pop()
	return data, flashDone + params.NVMeCompletionCost
}

// WritePage serves a block-path page write (out of place with GC on
// dynamic devices).
func (d *Device) WritePage(at sim.Time, lpn int64, data []byte) sim.Time {
	if d.dyn != nil {
		return d.WritePageDynamic(at, lpn, data)
	}
	_, cmdDone := d.nvme.Acquire(at, params.NVMeCmdCost)
	ppa := d.ftl.Translate(lpn)
	d.path.Push(ftl.BlockIO)
	done := d.arr.WritePage(cmdDone+params.Duration(params.FTLCycles), ppa, data)
	d.path.Pop()
	d.stats.BlockWrites++
	return done + params.NVMeCompletionCost
}

// ReadVectorAt serves an in-storage vector-grained read: the Embedding
// Lookup Engine's data path. byteAddr is the logical byte address of the
// vector (page-aligned layout guarantees it does not cross a page). The
// NVMe controller is not involved. Under a flash FaultPlan the read may fail
// with an error wrapping flash.ErrUncorrectable; data is nil in that case.
func (d *Device) ReadVectorAt(at sim.Time, byteAddr int64, size int) ([]byte, sim.Time, error) {
	lpn := byteAddr / int64(d.PageSize())
	col := int(byteAddr % int64(d.PageSize()))
	ppa, mapped := d.translateRead(lpn)
	d.stats.EVReads++
	if !mapped {
		return make([]byte, size), at + params.Duration(params.FTLCycles), nil
	}
	d.path.Push(ftl.EVRead)
	data, done, err := d.arr.ReadVector(at+params.Duration(params.FTLCycles), ppa, col, size)
	d.path.Pop()
	return data, done, err
}

// ReadPageInternal serves an in-storage whole-page read (used by the
// page-grained ISC baselines, e.g. EMB-PageSum and RecSSD's in-SSD sum).
func (d *Device) ReadPageInternal(at sim.Time, lpn int64) ([]byte, sim.Time) {
	ppa, mapped := d.translateRead(lpn)
	d.stats.EVReads++
	if !mapped {
		return make([]byte, d.PageSize()), at + params.Duration(params.FTLCycles)
	}
	d.path.Push(ftl.EVRead)
	data, done := d.arr.ReadPage(at+params.Duration(params.FTLCycles), ppa)
	d.path.Pop()
	return data, done
}

// ReadPageTiming serves a block-path page read without materialising data:
// the caller accounts page-granular traffic and latency but consumes only a
// sub-range, which it fetches separately with PeekRange.
func (d *Device) ReadPageTiming(at sim.Time, lpn int64) sim.Time {
	_, cmdDone := d.nvme.Acquire(at, params.NVMeCmdCost)
	ppa, mapped := d.translateRead(lpn)
	d.stats.BlockReads++
	d.stats.HostBytesRead += int64(d.PageSize())
	if !mapped {
		return cmdDone + params.NVMeCompletionCost
	}
	d.path.Push(ftl.BlockIO)
	done := d.arr.ReadPageTiming(cmdDone+params.Duration(params.FTLCycles), ppa)
	d.path.Pop()
	return done + params.NVMeCompletionCost
}

// ReadPageInternalTiming is ReadPageTiming for the in-storage path: no NVMe
// involvement, used by page-grained ISC baselines.
func (d *Device) ReadPageInternalTiming(at sim.Time, lpn int64) sim.Time {
	ppa, mapped := d.translateRead(lpn)
	d.stats.EVReads++
	if !mapped {
		return at + params.Duration(params.FTLCycles)
	}
	d.path.Push(ftl.EVRead)
	done := d.arr.ReadPageTiming(at+params.Duration(params.FTLCycles), ppa)
	d.path.Pop()
	return done
}

// PeekPage returns a copy of the page contents with no timing side effects.
func (d *Device) PeekPage(lpn int64) []byte {
	ppa, mapped := d.translateRead(lpn)
	if !mapped {
		return make([]byte, d.PageSize())
	}
	return d.arr.PeekPage(ppa)
}

// PeekRange returns size bytes at the logical byte address with no timing
// side effects. The range must not cross a page boundary.
func (d *Device) PeekRange(byteAddr int64, size int) []byte {
	lpn := byteAddr / int64(d.PageSize())
	col := int(byteAddr % int64(d.PageSize()))
	ppa, mapped := d.translateRead(lpn)
	if !mapped {
		return make([]byte, size)
	}
	return d.arr.PeekRange(ppa, col, size)
}

// WritePageUntimed stores page contents with no timing side effects. It is
// intended only for preloading embedding tables before a timed experiment
// phase: it resets all device timing resources to idle afterwards.
func (d *Device) WritePageUntimed(lpn int64, data []byte) {
	if d.dyn != nil {
		d.dynWrite(0, lpn, data)
	} else {
		d.arr.WritePage(0, d.ftl.Translate(lpn), data)
	}
	d.ResetTime()
}

// Drained returns the time at which all device resources go idle.
func (d *Device) Drained() sim.Time {
	return sim.Max(d.arr.Drained(), d.nvme.FreeAt())
}
