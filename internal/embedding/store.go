// Package embedding lays recommendation-model embedding tables out on the
// simulated SSD and provides the address arithmetic shared by every lookup
// implementation.
//
// Each table is a file on the extent-based file system (the paper's
// RM_create_table path writes tables "as normal files" through block I/O).
// Vectors are slotted so that no vector crosses a flash page boundary: page
// p of a table holds vectors [p*VPP, (p+1)*VPP) where VPP = PageSize/EVSize.
// For the paper's dimensions (32 and 64 -> 128 B and 256 B) the packing is
// exact; odd dimensions waste the page tail, as a real deployment would.
//
// The store also installs the device's deterministic content filler so that
// any page of any table reads back the correct vector bytes without 30 GB
// of RAM: contents are synthesised from (model seed, table, row, element)
// on demand.
package embedding

import (
	"fmt"
	"sort"

	"rmssd/internal/hostio"
	"rmssd/internal/model"
	"rmssd/internal/ssd"
)

// Store manages one model's embedding tables on one device.
type Store struct {
	m     *model.Model
	fs    *hostio.FS
	dev   *ssd.Device
	files []*hostio.File
	vpp   int64 // vectors per page
	// ranges maps device byte ranges to (table, first file byte) for the
	// filler, sorted by Addr. A table's extents that continue each other in
	// both device address and file offset share one range.
	ranges []addrRange
}

type addrRange struct {
	Addr    int64 // device byte address of range start
	Len     int64
	Table   int
	FileOff int64 // file byte offset of range start
}

// NewStore creates the table files for m on fs and installs the content
// filler on the device.
func NewStore(m *model.Model, fs *hostio.FS) (*Store, error) {
	cfg := m.Cfg
	ps := int64(fs.PageSize())
	evSize := int64(cfg.EVSize())
	if evSize > ps {
		return nil, fmt.Errorf("embedding: vector size %d exceeds page size %d", evSize, ps)
	}
	s := &Store{m: m, fs: fs, dev: fs.Device(), vpp: ps / evSize}
	pagesPerTable := (cfg.RowsPerTable + s.vpp - 1) / s.vpp
	for t := 0; t < cfg.Tables; t++ {
		f, err := fs.Create(fmt.Sprintf("%s.emb.%d", cfg.Name, t), pagesPerTable*ps)
		if err != nil {
			return nil, fmt.Errorf("embedding: creating table %d: %w", t, err)
		}
		s.files = append(s.files, f)
		for _, e := range f.Extents() {
			if n := len(s.ranges); n > 0 {
				if last := &s.ranges[n-1]; last.Table == t && last.Addr+last.Len == e.Addr && last.FileOff+last.Len == e.FileOff {
					last.Len += e.Len
					continue
				}
			}
			s.ranges = append(s.ranges, addrRange{Addr: e.Addr, Len: e.Len, Table: t, FileOff: e.FileOff})
		}
	}
	sort.Slice(s.ranges, func(i, j int) bool { return s.ranges[i].Addr < s.ranges[j].Addr })
	if s.dev.IsDynamic() {
		// Physical placement moves under the page-mapped FTL, so content
		// cannot be synthesised from addresses: write the tables for real.
		// (Only sensible at reduced experiment scales.)
		for t := 0; t < cfg.Tables; t++ {
			s.MaterializeTable(t)
		}
	} else {
		s.installFiller()
	}
	return s, nil
}

// Model returns the owning model.
func (s *Store) Model() *model.Model { return s.m }

// File returns the table's backing file.
func (s *Store) File(table int) *hostio.File { return s.files[table] }

// VectorsPerPage returns how many vectors share one flash page.
func (s *Store) VectorsPerPage() int64 { return s.vpp }

// VectorFileOffset returns the byte offset of a vector within its table
// file, honouring the slotted layout.
func (s *Store) VectorFileOffset(row int64) int64 {
	ps := int64(s.fs.PageSize())
	evSize := int64(s.m.Cfg.EVSize())
	return (row/s.vpp)*ps + (row%s.vpp)*evSize
}

// VectorAddr returns the device byte address of the vector at (table, row).
func (s *Store) VectorAddr(table int, row int64) int64 {
	if table < 0 || table >= len(s.files) {
		panic(fmt.Sprintf("embedding: table %d of %d", table, len(s.files)))
	}
	if row < 0 || row >= s.m.Cfg.RowsPerTable {
		panic(fmt.Sprintf("embedding: row %d of %d", row, s.m.Cfg.RowsPerTable))
	}
	return s.files[table].AddrOf(s.VectorFileOffset(row))
}

// locate returns the index of the first range that ends after addr, and
// whether that range contains addr. Without containment addr lies in a gap
// that ends at that range's start (or, at index len(ranges), never).
func (s *Store) locate(addr int64) (int, bool) {
	i := sort.Search(len(s.ranges), func(i int) bool {
		return s.ranges[i].Addr+s.ranges[i].Len > addr
	})
	return i, i < len(s.ranges) && addr >= s.ranges[i].Addr
}

// installFiller wires the deterministic vector generator into the device's
// sparse page store. It translates a physical page index back to a logical
// device address, locates the owning table, and synthesises the bytes one
// run at a time: a vector (or the part of one the buffer covers), or a
// stretch of zeroes reaching to the end of the page's slots, the page, or
// the gap between tables.
func (s *Store) installFiller() {
	arr := s.dev.Array()
	geo := arr.Geometry()
	f := s.dev.FTL()
	ps := int64(geo.PageSize)
	evSize := int64(s.m.Cfg.EVSize())
	arr.SetFiller(func(pageIdx uint64, col int, buf []byte) {
		lpn := f.Inverse(geo.FromFlat(pageIdx))
		start := lpn*ps + int64(col)
		for filled := 0; filled < len(buf); {
			addr := start + int64(filled)
			rest := int64(len(buf) - filled)
			i, ok := s.locate(addr)
			if !ok {
				// Outside any table: zeroes up to the next table.
				n := rest
				if i < len(s.ranges) {
					n = min(n, s.ranges[i].Addr-addr)
				}
				clear(buf[filled : filled+int(n)])
				filled += int(n)
				continue
			}
			r := &s.ranges[i]
			fileOff := r.FileOff + (addr - r.Addr)
			pageOff := fileOff % ps
			slot := pageOff / evSize
			row := (fileOff/ps)*s.vpp + slot
			n := min(rest, r.Addr+r.Len-addr)
			if slot >= s.vpp || row >= s.m.Cfg.RowsPerTable {
				// Page-tail padding after the last full slot, or slots
				// past the table's last row: zeroes to the page end.
				n = min(n, ps-pageOff)
				clear(buf[filled : filled+int(n)])
				filled += int(n)
				continue
			}
			within := pageOff % evSize
			n = min(n, evSize-within)
			s.m.EVBytesInto(r.Table, row, int(within), buf[filled:filled+int(n)])
			filled += int(n)
		}
	})
}

// MaterializeTable writes the actual bytes of one table through the block
// path; only sensible for test-sized tables. It lets tests verify that the
// filler and the written image agree byte for byte.
func (s *Store) MaterializeTable(table int) {
	cfg := s.m.Cfg
	f := s.files[table]
	ps := int64(s.fs.PageSize())
	pages := f.Size() / ps
	buf := make([]byte, ps)
	for p := int64(0); p < pages; p++ {
		for i := range buf {
			buf[i] = 0
		}
		for slot := int64(0); slot < s.vpp; slot++ {
			row := p*s.vpp + slot
			if row >= cfg.RowsPerTable {
				break
			}
			copy(buf[slot*int64(cfg.EVSize()):], s.m.EVBytes(table, row))
		}
		f.WriteAt(buf, p*ps)
	}
}
