package smp

import (
	"testing"
	"testing/quick"

	"embera/internal/sim"
)

func TestDefaultConfigMatchesPaperPlatform(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 8 || cfg.CoresPerNode != 2 {
		t.Errorf("geometry = %dx%d, want 8x2", cfg.Nodes, cfg.CoresPerNode)
	}
	if cfg.CoreHz != 2_200_000_000 {
		t.Errorf("core hz = %d, want 2.2 GHz", cfg.CoreHz)
	}
	if cfg.MemPerNode != 4<<30 {
		t.Errorf("mem per node = %d, want 4 GiB", cfg.MemPerNode)
	}
	m := MustNew(sim.NewKernel(), cfg)
	if m.NumCores() != 16 {
		t.Errorf("cores = %d, want 16", m.NumCores())
	}
	// Total memory = 32 GB as the paper states.
	var total int64
	for n := 0; n < m.NumNodes(); n++ {
		total += m.Node(n).MemTotal
	}
	if total != 32<<30 {
		t.Errorf("total memory = %d, want 32 GiB", total)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	k := sim.NewKernel()
	bad := []Config{
		{Nodes: 0, CoresPerNode: 2, CoreHz: 1, LocalBandwidth: 1},
		{Nodes: 3, CoresPerNode: 2, CoreHz: 1, LocalBandwidth: 1}, // not a power of two
		{Nodes: 8, CoresPerNode: 0, CoreHz: 1, LocalBandwidth: 1},
		{Nodes: 8, CoresPerNode: 2, CoreHz: 0, LocalBandwidth: 1},
		{Nodes: 8, CoresPerNode: 2, CoreHz: 1, LocalBandwidth: 0},
	}
	for i, cfg := range bad {
		if _, err := New(k, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestHypercubeHops(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 4, 1},
		{0, 3, 2}, {0, 5, 2}, {0, 6, 2}, {0, 7, 3},
		{5, 2, 3}, {7, 7, 0},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEveryNodeHasThreeLinks(t *testing.T) {
	// The paper: "Each node has three connections to communicate with other
	// nodes" — in the hypercube that is exactly the neighbors at 1 hop.
	m := MustNew(sim.NewKernel(), DefaultConfig())
	for a := 0; a < m.NumNodes(); a++ {
		links := 0
		for b := 0; b < m.NumNodes(); b++ {
			if m.Hops(a, b) == 1 {
				links++
			}
		}
		if links != 3 {
			t.Errorf("node %d has %d links, want 3", a, links)
		}
	}
}

func TestCopyCostLinearInSize(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	c1 := m.CopyCost(0, 0, 10_000)
	c2 := m.CopyCost(0, 0, 20_000)
	c4 := m.CopyCost(0, 0, 40_000)
	d21 := c2 - c1
	d42 := c4 - c2
	if d42 != 2*d21 {
		t.Errorf("copy cost not linear: deltas %v, %v", d21, d42)
	}
}

func TestCopyCostGrowsWithHops(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	local := m.CopyCost(0, 0, 100_000)
	oneHop := m.CopyCost(0, 1, 100_000)
	threeHop := m.CopyCost(0, 7, 100_000)
	if !(local < oneHop && oneHop < threeHop) {
		t.Errorf("costs not increasing with distance: %v, %v, %v", local, oneHop, threeHop)
	}
}

func TestCopyCostZeroAndNegative(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	if got := m.CopyCost(0, 0, 0); got != m.Config().CopySetup {
		t.Errorf("zero-byte copy = %v, want setup cost %v", got, m.Config().CopySetup)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative copy size did not panic")
		}
	}()
	m.CopyCost(0, 0, -1)
}

func TestCycleCost(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	core := m.Core(0)
	// 2.2e9 cycles at 2.2 GHz = 1 s.
	if got := core.CycleCost(2_200_000_000); got != sim.Second {
		t.Errorf("CycleCost = %v, want 1s", got)
	}
	if core.CycleCost(0) != 0 || core.CycleCost(-5) != 0 {
		t.Error("non-positive cycles should cost zero")
	}
}

func TestNextCoreSpreadsAcrossNodes(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	seen := map[int]bool{}
	for i := 0; i < m.NumNodes(); i++ {
		c := m.NextCore()
		if seen[c.Node] {
			t.Errorf("allocation %d reused node %d before covering all nodes", i, c.Node)
		}
		seen[c.Node] = true
	}
	// Next allocations reuse nodes but pick distinct cores.
	c := m.NextCore()
	if c.ID == m.Core(0).ID && m.Config().CoresPerNode > 1 {
		t.Error("round-robin wrapped onto the same core immediately")
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	if err := m.Alloc(0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if m.Node(0).MemUsed != 1<<20 {
		t.Errorf("used = %d", m.Node(0).MemUsed)
	}
	m.Free(0, 1<<20)
	if m.Node(0).MemUsed != 0 {
		t.Errorf("used after free = %d", m.Node(0).MemUsed)
	}
}

func TestAllocOOM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPerNode = 1024
	m := MustNew(sim.NewKernel(), cfg)
	if err := m.Alloc(0, 2048); err == nil {
		t.Error("overcommit accepted")
	}
	if err := m.Alloc(0, 1024); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("over-free did not panic")
		}
	}()
	m.Free(0, 1)
}

func TestCoreIndexBounds(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core did not panic")
		}
	}()
	m.Core(16)
}

// Property: hop metric is a metric — symmetric, zero iff equal, triangle
// inequality.
func TestHopsIsAMetric(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	n := m.NumNodes()
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		if (m.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: copy cost is monotone in size.
func TestCopyCostMonotone(t *testing.T) {
	m := MustNew(sim.NewKernel(), DefaultConfig())
	f := func(a, b uint16, src, dst uint8) bool {
		s, d := int(src)%8, int(dst)%8
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.CopyCost(s, d, lo) <= m.CopyCost(s, d, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheHitsAfterFirstTouch(t *testing.T) {
	c := NewCache(4096, 64, 2)
	c.Touch(0, 64)
	hits, misses := c.Stats()
	if hits != 0 || misses != 1 {
		t.Fatalf("first touch: hits=%d misses=%d", hits, misses)
	}
	c.Touch(0, 64)
	hits, misses = c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("second touch: hits=%d misses=%d", hits, misses)
	}
}

func TestCacheStreamingMissesPerLine(t *testing.T) {
	c := NewCache(1<<20, 64, 8)
	c.Touch(0, 64*100) // 100 lines
	_, misses := c.Stats()
	if misses != 100 {
		t.Errorf("misses = %d, want 100", misses)
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	// Cache of 2 lines (128 B, 1 way, 2 sets). Touch 4 distinct lines twice:
	// every access must miss because lines alternate sets and evict.
	c := NewCache(128, 64, 1)
	for pass := 0; pass < 2; pass++ {
		for line := 0; line < 4; line++ {
			c.Touch(uint64(line*64), 1)
		}
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 8 {
		t.Errorf("hits=%d misses=%d, want 0/8", hits, misses)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// One set, two ways. Access pattern A B A C A: C evicts B (LRU), so the
	// final A hits.
	c := NewCache(128, 64, 2)
	a, b, cc := uint64(0), uint64(64*2), uint64(64*4) // same set (set count 1)
	c.Touch(a, 1)
	c.Touch(b, 1)
	c.Touch(a, 1)
	c.Touch(cc, 1)
	c.Touch(a, 1)
	hits, misses := c.Stats()
	if hits != 2 || misses != 3 {
		t.Errorf("hits=%d misses=%d, want 2/3", hits, misses)
	}
}

func TestCacheMissRateAndReset(t *testing.T) {
	c := NewCache(4096, 64, 2)
	if c.MissRate() != 0 {
		t.Error("miss rate before any access should be 0")
	}
	c.Touch(0, 64)
	c.Touch(0, 64)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
	c.Reset()
	h, m := c.Stats()
	if h != 0 || m != 0 {
		t.Error("reset did not clear counters")
	}
	if c.LineSize() != 64 {
		t.Errorf("line size = %d", c.LineSize())
	}
}

// TestCacheLineStateOnFirstTouch: a new cache allocates only itself, and
// its line state, allocated on the first touch, is cleared by Reset.
func TestCacheLineStateOnFirstTouch(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { NewCache(2<<20, 64, 8) }); n != 1 {
		t.Errorf("NewCache allocations = %v, want 1", n)
	}
	c := NewCache(4096, 64, 2)
	c.Touch(0, 64)
	c.Reset()
	c.Touch(0, 64)
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Errorf("touch after reset: hits=%d misses=%d, want 0/1", h, m)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	NewCache(0, 64, 1)
}
