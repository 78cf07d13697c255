package monitor_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// randHist draws a histogram of one of the shapes the compact store must
// round-trip: empty, only bucket 0, only bucket 63, every bucket non-zero,
// or a random sparse span with interior zeros.
func randHist(r *rand.Rand) monitor.Hist {
	var h monitor.Hist
	switch r.IntN(5) {
	case 0:
	case 1:
		h.Counts[0] = 1 + r.Uint64N(1<<40)
	case 2:
		h.Counts[63] = 1 + r.Uint64N(1<<40)
	case 3:
		for i := range h.Counts {
			h.Counts[i] = 1 + r.Uint64N(1<<20)
		}
	default:
		lo := r.IntN(64)
		hi := lo + r.IntN(64-lo)
		h.Counts[lo], h.Counts[hi] = 1+r.Uint64N(100), 1+r.Uint64N(100)
		for i := lo + 1; i < hi; i++ {
			if r.IntN(2) == 0 {
				h.Counts[i] = r.Uint64N(100)
			}
		}
	}
	for _, c := range h.Counts {
		h.Total += c
	}
	if h.Total > 0 {
		h.Max = r.Int64N(math.MaxInt64)
	}
	return h
}

// randWindows draws n windows over comps interleaved components, every
// field random (covered spans of zero or below included, so the merged
// rates take their fallback span too).
func randWindows(r *rand.Rand, n, comps int) []monitor.WindowStats {
	ws := make([]monitor.WindowStats, n)
	for i := range ws {
		start := r.Int64N(1e9)
		ws[i] = monitor.WindowStats{
			Component:    fmt.Sprintf("c%d", r.IntN(comps)),
			StartUS:      start,
			EndUS:        start + r.Int64N(1e4),
			Samples:      r.IntN(100),
			CoveredUS:    r.Int64N(2e4) - 1e3,
			SendOps:      r.Uint64(),
			RecvOps:      r.Uint64(),
			DeltaSendOps: r.Uint64N(1e6),
			DeltaRecvOps: r.Uint64N(1e6),
			SendRate:     r.Float64() * 1e6,
			RecvRate:     r.Float64() * 1e6,
			DepthHigh:    r.IntN(1 << 20),
			DepthHist:    randHist(r),
			LatencyHist:  randHist(r),
			MemHigh:      r.Int64N(1 << 40),
		}
	}
	return ws
}

// sameTotals fails unless got equals want field for field, the float
// rates compared bit for bit.
func sameTotals(t *testing.T, got, want []monitor.WindowStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Totals() differs from MergeWindows:\n got %+v\nwant %+v", got, want)
	}
	for i := range got {
		if math.Float64bits(got[i].SendRate) != math.Float64bits(want[i].SendRate) ||
			math.Float64bits(got[i].RecvRate) != math.Float64bits(want[i].RecvRate) {
			t.Fatalf("%s: rates %v/%v, MergeWindows %v/%v", got[i].Component,
				got[i].SendRate, got[i].RecvRate, want[i].SendRate, want[i].RecvRate)
		}
	}
}

// TestMemorySinkRoundTrip: over seeded random histories spanning several
// window and counts chunks, Windows() rebuilds exactly the written
// sequence and Totals() is exactly MergeWindows of it, at every prefix
// checked.
func TestMemorySinkRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewPCG(seed, seed))
		written := randWindows(r, 1500, 5)
		s := monitor.NewMemorySink()
		if got := s.Windows(); len(got) != 0 {
			t.Fatalf("seed %d: empty sink returned %d windows", seed, len(got))
		}
		sameTotals(t, s.Totals(), monitor.MergeWindows(nil))
		for i, w := range written {
			if err := s.WriteWindow(w); err != nil {
				t.Fatal(err)
			}
			if n := i + 1; n == 1 || n%499 == 0 || n == len(written) {
				got := s.Windows()
				if !reflect.DeepEqual(got, written[:n]) {
					t.Fatalf("seed %d: Windows() after %d writes differs from the written sequence", seed, n)
				}
				sameTotals(t, s.Totals(), monitor.MergeWindows(written[:n]))
				sameTotals(t, s.Totals(), monitor.MergeWindows(got))
			}
		}
	}
}

// TestMemorySinkConcurrentIngest writes windows through Monitor.Ingest from
// several goroutines while a native run's pump writes its own and readers
// take Windows and Totals: every window lands once, each writer's windows
// keep their order, and the totals stay MergeWindows of the history.
func TestMemorySinkConcurrentIngest(t *testing.T) {
	m, a := platform.MustGet("native").New("ingest-race")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 100; i++ {
			ctx.SleepUS(200)
			ctx.Send("out", i, 512)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 1<<16)
	a.MustConnect(prod, "out", cons, "in")
	mon, err := monitor.New(a, monitor.Config{
		Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: 100}},
		WindowUS: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 300
	sent := make([][]monitor.WindowStats, writers)
	var wg sync.WaitGroup
	for i := range writers {
		r := rand.New(rand.NewPCG(uint64(i), 99))
		sent[i] = randWindows(r, perWriter, 1)
		for j := range sent[i] {
			sent[i][j].Component = fmt.Sprintf("remote-%d", i)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, w := range sent[i] {
				mon.Ingest(w)
			}
		}()
		go func() {
			defer wg.Done()
			for range 20 {
				_ = mon.Windows()
				_ = mon.Totals()
			}
		}()
	}
	if err := m.Run(nativeHorizonUS); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	all := mon.Windows()
	if got, want := windowedSamples(all), mon.Samples(); got != want {
		t.Fatalf("windowed samples = %d, accepted = %d", got, want)
	}
	byComp := map[string][]monitor.WindowStats{}
	for _, w := range all {
		byComp[w.Component] = append(byComp[w.Component], w)
	}
	for i := range writers {
		name := fmt.Sprintf("remote-%d", i)
		if !reflect.DeepEqual(byComp[name], sent[i]) {
			t.Fatalf("%s: %d windows retained, %d ingested, or their order changed",
				name, len(byComp[name]), len(sent[i]))
		}
	}
	if len(byComp["prod"]) == 0 {
		t.Fatal("the pump wrote no windows of its own")
	}
	sameTotals(t, mon.Totals(), monitor.MergeWindows(all))
}

// TestMemorySinkRetention pins the compact history's footprint: 100k
// typical windows (a few non-zero buckets per histogram) retain at most
// 256 B of heap each after GC — a dense WindowStats alone is 1,168 B.
func TestMemorySinkRetention(t *testing.T) {
	const n = 100_000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s := monitor.NewMemorySink()
	for i := range n {
		var w monitor.WindowStats
		w.Component = [...]string{"Fetch", "IDCT", "Reorder"}[i%3]
		w.StartUS, w.EndUS = int64(i)*10_000, int64(i+1)*10_000
		w.CoveredUS, w.Samples = 10_000, 10
		w.SendOps, w.DeltaSendOps, w.SendRate = uint64(i), 1, 100
		for j := range 10 {
			w.DepthHist.Observe(int64(j % 3))
			w.LatencyHist.Observe(int64(40 + i%50))
		}
		if err := s.WriteWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perWindow := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	runtime.KeepAlive(s)
	if perWindow > 256 {
		t.Fatalf("history retains %.0f B per window, want <= 256", perWindow)
	}
	t.Logf("%.0f B retained per window", perWindow)
}
