package flash

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"rmssd/internal/params"
	"rmssd/internal/sim"
)

func smallGeometry() Geometry {
	return Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 8,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
}

func TestDefaultGeometryMatchesTableII(t *testing.T) {
	g := DefaultGeometry()
	if g.Channels != 4 {
		t.Fatalf("channels = %d, want 4", g.Channels)
	}
	if g.PageSize != 4096 {
		t.Fatalf("page size = %d, want 4096", g.PageSize)
	}
	got := g.CapacityBytes()
	want := int64(params.SSDCapacityBytes)
	if got > want || got < want-want/100 {
		t.Fatalf("capacity = %d, want within 1%% of %d (32 GB)", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Channels: 0, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerPlane: 1, PagesPerBlock: 1, PageSize: 1},
		{Channels: 1, DiesPerChannel: 0, PlanesPerDie: 1, BlocksPerPlane: 1, PagesPerBlock: 1, PageSize: 1},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 0, BlocksPerPlane: 1, PagesPerBlock: 1, PageSize: 1},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerPlane: 0, PagesPerBlock: 1, PageSize: 1},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerPlane: 1, PagesPerBlock: 0, PageSize: 1},
		{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1, BlocksPerPlane: 1, PagesPerBlock: 1, PageSize: 0},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestFlatIndexRoundTrip(t *testing.T) {
	g := smallGeometry()
	f := func(c, d, pl, b, pg uint8) bool {
		p := PPA{
			Channel: int(c) % g.Channels,
			Die:     int(d) % g.DiesPerChannel,
			Plane:   int(pl) % g.PlanesPerDie,
			Block:   int(b) % g.BlocksPerPlane,
			Page:    int(pg) % g.PagesPerBlock,
		}
		return g.FromFlat(g.FlatIndex(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlatIndexDense(t *testing.T) {
	g := smallGeometry()
	seen := make(map[uint64]bool)
	total := g.TotalPages()
	for c := 0; c < g.Channels; c++ {
		for d := 0; d < g.DiesPerChannel; d++ {
			for pl := 0; pl < g.PlanesPerDie; pl++ {
				for b := 0; b < g.BlocksPerPlane; b++ {
					for pg := 0; pg < g.PagesPerBlock; pg++ {
						idx := g.FlatIndex(PPA{c, d, pl, b, pg})
						if idx >= uint64(total) {
							t.Fatalf("flat index %d >= total %d", idx, total)
						}
						if seen[idx] {
							t.Fatalf("duplicate flat index %d", idx)
						}
						seen[idx] = true
					}
				}
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("covered %d of %d pages", len(seen), total)
	}
}

// mustArray builds an Array over the given geometry, failing the test if
// the geometry is rejected.
func mustArray(t *testing.T, g Geometry) *Array {
	t.Helper()
	a, err := NewArray(g)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestReadPageLatencyIdle(t *testing.T) {
	a, err := NewArray(smallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	_, done := a.ReadPage(0, PPA{})
	// Idle-array page read = Tflush + Ttrans = Tpage = 20us (Table II).
	if done != params.TPage {
		t.Fatalf("page read latency = %v, want %v", done, params.TPage)
	}
}

func TestReadVectorLatencyIdle(t *testing.T) {
	a := mustArray(t, smallGeometry())
	const evSize = 128 // dim-32 fp32 vector
	_, done, err := a.ReadVector(0, PPA{}, 0, evSize)
	if err != nil {
		t.Fatal(err)
	}
	want := params.Duration(params.FlushCycles + params.VectorTransferCycles(evSize))
	if done != want {
		t.Fatalf("vector read latency = %v, want %v", done, want)
	}
	// And it must match the paper's C_EV equation within a cycle.
	cycles := sim.DurationToCycles(done, params.CycleTime)
	wantCycles := params.EVReadCycles(evSize)
	if diff := cycles - wantCycles; diff < -1 || diff > 1 {
		t.Fatalf("C_EV = %d cycles, want %d (0.293*EVsize+2800)", cycles, wantCycles)
	}
}

func TestVectorReadFasterThanPageRead(t *testing.T) {
	a := mustArray(t, smallGeometry())
	_, pageDone := a.ReadPage(0, PPA{Die: 0})
	a.ResetTime()
	_, vecDone, err := a.ReadVector(0, PPA{Die: 0}, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if vecDone >= pageDone {
		t.Fatalf("vector read (%v) not faster than page read (%v)", vecDone, pageDone)
	}
}

// Bulk vector reads striped over dies should saturate well above the
// page-read rate: the throughput argument of Section IV-B2.
func TestVectorGrainedThroughputGain(t *testing.T) {
	g := smallGeometry()
	const n = 256
	const evSize = 128

	pageArr := mustArray(t, g)
	var pageDone sim.Time
	for i := 0; i < n; i++ {
		ppa := PPA{Channel: i % g.Channels, Die: (i / g.Channels) % g.DiesPerChannel, Page: i % g.PagesPerBlock}
		_, done := pageArr.ReadPage(0, ppa)
		pageDone = sim.Max(pageDone, done)
	}

	vecArr := mustArray(t, g)
	var vecDone sim.Time
	for i := 0; i < n; i++ {
		ppa := PPA{Channel: i % g.Channels, Die: (i / g.Channels) % g.DiesPerChannel, Page: i % g.PagesPerBlock}
		_, done, err := vecArr.ReadVector(0, ppa, 0, evSize)
		if err != nil {
			t.Fatal(err)
		}
		vecDone = sim.Max(vecDone, done)
	}
	// Page reads serialize on the bus for 6us each; vector reads are
	// flush-bound at Tflush/dies = 3.5us. The resulting ~1.7-1.8x bulk
	// gain matches the EMB-PageSum vs EMB-VectorSum gap in Fig. 11
	// (4.0s vs 2.2s on RMC1, 7.9s vs 3.8s on RMC2).
	if float64(vecDone)*1.5 > float64(pageDone) {
		t.Fatalf("vector bulk read %v vs page bulk read %v: want >=1.5x gain", vecDone, pageDone)
	}
}

func TestReadVectorBoundsPanic(t *testing.T) {
	a := mustArray(t, smallGeometry())
	cases := []struct{ col, size int }{
		{-1, 10}, {0, 0}, {4000, 200}, {0, 5000},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReadVector(col=%d,size=%d) did not panic", c.col, c.size)
				}
			}()
			//lint:allow errcheck the call panics before returning a result
			a.ReadVector(0, PPA{}, c.col, c.size)
		}()
	}
}

func TestPPARangePanic(t *testing.T) {
	a := mustArray(t, smallGeometry())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range PPA")
		}
	}()
	a.ReadPage(0, PPA{Channel: 99})
}

func TestWriteThenRead(t *testing.T) {
	a := mustArray(t, smallGeometry())
	data := make([]byte, 4096)
	binary.LittleEndian.PutUint64(data[8:], 0xdeadbeef)
	a.WritePage(0, PPA{Block: 1, Page: 2}, data)
	got, _ := a.ReadPage(a.Drained(), PPA{Block: 1, Page: 2})
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestWriteShortPagePadded(t *testing.T) {
	a := mustArray(t, smallGeometry())
	a.WritePage(0, PPA{}, []byte{1, 2, 3})
	got := a.PeekPage(PPA{})
	if len(got) != 4096 || got[0] != 1 || got[3] != 0 {
		t.Fatal("short write not padded to page size")
	}
}

func TestWriteOversizePanics(t *testing.T) {
	a := mustArray(t, smallGeometry())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.WritePage(0, PPA{}, make([]byte, 5000))
}

func TestFillerSynthesis(t *testing.T) {
	a := mustArray(t, smallGeometry())
	a.SetFiller(func(idx uint64, col int, buf []byte) {
		full := make([]byte, a.Geometry().PageSize)
		binary.LittleEndian.PutUint64(full, idx)
		copy(buf, full[col:])
	})
	p := PPA{Channel: 2, Die: 1, Block: 3, Page: 4}
	got, _ := a.ReadPage(0, p)
	if binary.LittleEndian.Uint64(got) != a.Geometry().FlatIndex(p) {
		t.Fatal("filler content mismatch")
	}
	// Written pages shadow the filler.
	a.WritePage(0, p, []byte{0xff})
	got = a.PeekPage(p)
	if got[0] != 0xff {
		t.Fatal("written page did not shadow filler")
	}
}

func TestStatsAccounting(t *testing.T) {
	a := mustArray(t, smallGeometry())
	a.ReadPage(0, PPA{})
	if _, _, err := a.ReadVector(0, PPA{}, 0, 128); err != nil {
		t.Fatal(err)
	}
	a.WritePage(0, PPA{}, []byte{1})
	s := a.Stats()
	if s.PageReads != 1 || s.VectorReads != 1 || s.PageWrites != 1 {
		t.Fatalf("op counts = %+v", s)
	}
	if s.BytesTransferred != 4096+128+1 {
		t.Fatalf("BytesTransferred = %d, want %d", s.BytesTransferred, 4096+128+1)
	}
	if s.BytesFlushed != 2*4096 {
		t.Fatalf("BytesFlushed = %d, want %d", s.BytesFlushed, 2*4096)
	}
	a.ResetStats()
	if a.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestResetTime(t *testing.T) {
	a := mustArray(t, smallGeometry())
	a.ReadPage(0, PPA{})
	if a.Drained() == 0 {
		t.Fatal("expected non-zero drain time")
	}
	a.ResetTime()
	if a.Drained() != 0 {
		t.Fatal("ResetTime did not idle the array")
	}
}

func TestBusUtilization(t *testing.T) {
	a := mustArray(t, smallGeometry())
	_, done := a.ReadPage(0, PPA{Channel: 0})
	u := a.BusUtilization(done)
	if u[0] <= 0 {
		t.Fatal("channel 0 bus should show utilization")
	}
	if u[1] != 0 {
		t.Fatal("channel 1 bus should be idle")
	}
}

func TestPageStoreZeroDefault(t *testing.T) {
	s := NewPageStore(64)
	p := s.Read(5)
	for _, b := range p {
		if b != 0 {
			t.Fatal("unwritten page without filler should read as zero")
		}
	}
	if s.Resident() != 0 {
		t.Fatal("Read must not materialise pages")
	}
	s.Write(5, []byte{9})
	if s.Resident() != 1 {
		t.Fatal("Write should materialise exactly one page")
	}
}

// Property: vector transfer time is monotone in size and never exceeds the
// full-page transfer time for sizes up to a page.
func TestVectorTransferMonotone(t *testing.T) {
	f := func(s1, s2 uint16) bool {
		a := int(s1)%4096 + 1
		b := int(s2)%4096 + 1
		if a > b {
			a, b = b, a
		}
		ta := params.VectorTransferCycles(a)
		tb := params.VectorTransferCycles(b)
		return ta <= tb && tb <= params.PageTransferCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEVReadCyclesPaperValues(t *testing.T) {
	// Table II: C_EV = 0.293*EVsize + 2800 cycles.
	for _, tc := range []struct {
		size int
		want sim.Cycles
	}{
		{128, 2837}, // dim 32: 0.293*128 = 37.5
		{256, 2875}, // dim 64: 0.293*256 = 75
	} {
		got := params.EVReadCycles(tc.size)
		if diff := got - tc.want; diff < -1 || diff > 1 {
			t.Errorf("EVReadCycles(%d) = %d, want ~%d", tc.size, got, tc.want)
		}
	}
}

func TestPageReadIs20us(t *testing.T) {
	if params.TPage != 20*time.Microsecond {
		t.Fatalf("TPage = %v, want 20us", params.TPage)
	}
}

func TestEraseBlock(t *testing.T) {
	a := mustArray(t, smallGeometry())
	p := PPA{Channel: 1, Die: 1, Block: 2, Page: 3}
	a.WritePage(0, p, []byte{0xab})
	blk := PPA{Channel: 1, Die: 1, Block: 2}
	start := a.Drained()
	done := a.EraseBlock(start, blk)
	if done-start < params.TErase {
		t.Fatalf("erase took %v, want >= %v", done-start, params.TErase)
	}
	if a.Wear(blk) != 1 {
		t.Fatalf("wear = %d", a.Wear(blk))
	}
	if a.MaxWear() != 1 {
		t.Fatalf("max wear = %d", a.MaxWear())
	}
	if got := a.PeekPage(p); got[0] != 0 {
		t.Fatal("erased page should read as zeros (no filler)")
	}
	if a.Stats().Erases != 1 {
		t.Fatal("erase not counted")
	}
	// Erase occupies the die: a read on the same die queues behind it.
	_, readDone := a.ReadPage(done-params.TErase/2, PPA{Channel: 1, Die: 1})
	if readDone < done {
		t.Fatal("read did not queue behind erase")
	}
}

// TestLaneReopen checks a re-armed lane behaves as a fresh one: it keeps
// scheduling on the channel's resources from where the last phase left
// them, counts only the new phase's traffic and folds it in on Close.
// Reopening a lane that is still open is a programmer error.
func TestLaneReopen(t *testing.T) {
	const evSize = 128
	a := mustArray(t, smallGeometry())
	b := mustArray(t, smallGeometry())
	reused := a.Lane(1)
	for phase := 0; phase < 3; phase++ {
		if phase > 0 {
			reused.Reopen()
		}
		fresh := b.Lane(1)
		at := sim.Time(phase) * 1000
		p := PPA{Channel: 1, Die: phase % 2, Page: phase}
		if _, err := reused.ReadVectorTiming(at, p, 0, evSize); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ReadVectorTiming(at, p, 0, evSize); err != nil {
			t.Fatal(err)
		}
		da, errA := reused.ReadVector(at, p, evSize, make([]byte, evSize))
		db, errB := fresh.ReadVector(at, p, evSize, make([]byte, evSize))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if da != db {
			t.Fatalf("phase %d: reopened lane done %v, fresh lane %v", phase, da, db)
		}
		if reused.Stats() != fresh.Stats() || reused.Stats().VectorReads != 2 {
			t.Fatalf("phase %d: lane stats %+v, fresh %+v", phase, reused.Stats(), fresh.Stats())
		}
		reused.Close()
		fresh.Close()
	}
	if a.Stats() != b.Stats() || a.ChannelIO()[1] != b.ChannelIO()[1] {
		t.Fatalf("array stats %+v, want %+v", a.Stats(), b.Stats())
	}

	reused.Reopen()
	defer func() {
		if recover() == nil {
			t.Fatal("Reopen of an open lane did not panic")
		}
	}()
	reused.Reopen()
}
