package ftl

import (
	"testing"
	"testing/quick"

	"rmssd/internal/flash"
)

func testGeo() flash.Geometry {
	return flash.Geometry{
		Channels:       4,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 8,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
}

func TestTranslateStripesChannelsFirst(t *testing.T) {
	f := New(testGeo())
	for lpn := int64(0); lpn < 8; lpn++ {
		p := f.Translate(lpn)
		if p.Channel != int(lpn)%4 {
			t.Fatalf("LPN %d -> channel %d, want %d", lpn, p.Channel, lpn%4)
		}
	}
	// After one full sweep of channels, the die advances.
	if p := f.Translate(4); p.Die != 1 {
		t.Fatalf("LPN 4 -> die %d, want 1", p.Die)
	}
}

func TestTranslateInverseRoundTrip(t *testing.T) {
	f := New(testGeo())
	total := f.TotalPages()
	prop := func(raw uint32) bool {
		lpn := int64(raw) % total
		return f.Inverse(f.Translate(lpn)) == lpn
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateBijectiveExhaustive(t *testing.T) {
	f := New(testGeo())
	seen := make(map[flash.PPA]bool)
	for lpn := int64(0); lpn < f.TotalPages(); lpn++ {
		p := f.Translate(lpn)
		if !f.Geometry().Contains(p) {
			t.Fatalf("LPN %d -> out-of-range PPA %+v", lpn, p)
		}
		if seen[p] {
			t.Fatalf("LPN %d maps to already-used PPA %+v", lpn, p)
		}
		seen[p] = true
	}
	if int64(len(seen)) != f.TotalPages() {
		t.Fatalf("mapping covered %d of %d pages", len(seen), f.TotalPages())
	}
}

func TestTranslateOutOfRangePanics(t *testing.T) {
	f := New(testGeo())
	for _, lpn := range []int64{-1, f.TotalPages()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Translate(%d) did not panic", lpn)
				}
			}()
			f.Translate(lpn)
		}()
	}
}

func TestLBAPageConversions(t *testing.T) {
	f := New(testGeo())
	if f.SectorsPerPage() != 8 {
		t.Fatalf("SectorsPerPage = %d, want 8", f.SectorsPerPage())
	}
	lpn, col := f.LBAToPage(0)
	if lpn != 0 || col != 0 {
		t.Fatalf("LBAToPage(0) = (%d,%d)", lpn, col)
	}
	lpn, col = f.LBAToPage(9) // second page, second sector
	if lpn != 1 || col != 512 {
		t.Fatalf("LBAToPage(9) = (%d,%d), want (1,512)", lpn, col)
	}
	if f.PageToLBA(3) != 24 {
		t.Fatalf("PageToLBA(3) = %d, want 24", f.PageToLBA(3))
	}
}

func TestLBAToPageRoundTrip(t *testing.T) {
	f := New(testGeo())
	prop := func(raw uint16) bool {
		lba := int64(raw)
		lpn, col := f.LBAToPage(lba)
		if col%SectorSize != 0 || col < 0 || col >= f.Geometry().PageSize {
			return false
		}
		return f.PageToLBA(lpn)+int64(col/SectorSize) == lba
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeLBAPanics(t *testing.T) {
	f := New(testGeo())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.LBAToPage(-1)
}

func TestPathBufferFIFO(t *testing.T) {
	var b PathBuffer
	b.Push(BlockIO)
	b.Push(EVRead)
	b.Push(EVRead)
	if b.Depth() != 3 || b.MaxDepth() != 3 {
		t.Fatalf("Depth=%d MaxDepth=%d", b.Depth(), b.MaxDepth())
	}
	if k, ok := b.Pop(); !ok || k != BlockIO {
		t.Fatalf("first pop = %v,%v", k, ok)
	}
	if k, ok := b.Pop(); !ok || k != EVRead {
		t.Fatalf("second pop = %v,%v", k, ok)
	}
	if b.Admitted(EVRead) != 2 || b.Admitted(BlockIO) != 1 {
		t.Fatal("Admitted counters wrong")
	}
	b.Pop()
	if _, ok := b.Pop(); ok {
		t.Fatal("pop from empty buffer should report false")
	}
}

// The device pushes and pops in pairs for every request; once the buffer
// has grown, that must not allocate.
func TestPathBufferPairsDoNotAllocate(t *testing.T) {
	var b PathBuffer
	b.Push(EVRead)
	b.Pop()
	if allocs := testing.AllocsPerRun(100, func() {
		b.Push(EVRead)
		b.Pop()
	}); allocs != 0 {
		t.Fatalf("Push+Pop: %.1f allocs, want 0", allocs)
	}
}

func TestMuxRoundRobin(t *testing.T) {
	var m Mux
	// Both waiting: strict alternation.
	k1, _ := m.Pick(true, true)
	k2, _ := m.Pick(true, true)
	k3, _ := m.Pick(true, true)
	if k1 == k2 || k2 == k3 || k1 != k3 {
		t.Fatalf("alternation broken: %v %v %v", k1, k2, k3)
	}
	// Single queue waiting: serve it regardless of history.
	if k, ok := m.Pick(true, false); !ok || k != BlockIO {
		t.Fatal("block-only pick failed")
	}
	if k, ok := m.Pick(false, true); !ok || k != EVRead {
		t.Fatal("ev-only pick failed")
	}
	if _, ok := m.Pick(false, false); ok {
		t.Fatal("empty pick should report false")
	}
}

func TestMuxFairnessProperty(t *testing.T) {
	// Property: over any run with both queues always occupied, the MUX
	// never serves one side twice in a row.
	var m Mux
	prev, _ := m.Pick(true, true)
	for i := 0; i < 100; i++ {
		k, _ := m.Pick(true, true)
		if k == prev {
			t.Fatalf("served %v twice consecutively", k)
		}
		prev = k
	}
}

func TestRequestKindString(t *testing.T) {
	if BlockIO.String() != "block" || EVRead.String() != "ev" {
		t.Fatal("String() broken")
	}
	if RequestKind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}
