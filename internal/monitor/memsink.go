package monitor

import (
	"sort"
	"sync"
)

// Chunk capacities of MemorySink's history, about 8 KB each. A chunk
// never grows, so appending a window never copies the ones before it: the
// history costs what it holds, not a doubling slice's growth copies and
// slack.
const (
	windowChunk = 60   // packed windows, 136 B each
	countsChunk = 1024 // histogram counts
)

// histHead is what a stored histogram keeps besides its bucket counts.
type histHead struct {
	total uint64
	max   int64
}

// packedWindow is one retained window: a WindowStats with the component
// name replaced by its interned id and each histogram reduced to its head
// and the span [first, first+n) from its lowest to its highest non-zero
// bucket. The span's counts live in the sink's counts arena, in write
// order, so they need no offset: a sequential read recovers them.
type packedWindow struct {
	startUS, endUS, coveredUS  int64
	samples                    int
	sendOps, recvOps           uint64
	deltaSendOps, deltaRecvOps uint64
	sendRate, recvRate         float64
	depthHigh                  int
	memHigh                    int64
	depth, lat                 histHead
	comp                       uint32
	depthFirst, depthN         uint8
	latFirst, latN             uint8
}

// MemorySink retains every window in memory, for tests and for end-of-run
// reporting. The history is compact: a window with a few non-zero
// histogram buckets retains about 170 B (BenchmarkMemorySinkWrite reports
// the figure), against the 1,168 B of a WindowStats and its two dense
// histograms. Windows rebuilds exactly the WindowStats that were written;
// Totals reads per-component running aggregates folded at write time, so
// it costs O(components) whatever the history's length.
type MemorySink struct {
	mu     sync.Mutex
	ids    map[string]uint32
	names  []string      // interned component names, by id
	totals []WindowStats // running fold of each component's windows, by id
	n      int
	// windows and counts are chunked: every chunk but the last is full.
	windows [][]packedWindow
	counts  [][]uint64
}

// NewMemorySink creates an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{ids: make(map[string]uint32)} }

// WriteWindow implements Sink.
func (s *MemorySink) WriteWindow(w WindowStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[w.Component]
	if ok {
		foldWindow(&s.totals[id], &w)
	} else {
		id = uint32(len(s.names))
		s.ids[w.Component] = id
		s.names = append(s.names, w.Component)
		s.totals = append(s.totals, w)
	}
	p := packedWindow{
		startUS: w.StartUS, endUS: w.EndUS, coveredUS: w.CoveredUS,
		samples: w.Samples,
		sendOps: w.SendOps, recvOps: w.RecvOps,
		deltaSendOps: w.DeltaSendOps, deltaRecvOps: w.DeltaRecvOps,
		sendRate: w.SendRate, recvRate: w.RecvRate,
		depthHigh: w.DepthHigh,
		memHigh:   w.MemHigh,
		depth:     histHead{w.DepthHist.Total, w.DepthHist.Max},
		lat:       histHead{w.LatencyHist.Total, w.LatencyHist.Max},
		comp:      id,
	}
	p.depthFirst, p.depthN = s.putSpan(&w.DepthHist)
	p.latFirst, p.latN = s.putSpan(&w.LatencyHist)
	if k := len(s.windows); k == 0 || len(s.windows[k-1]) == cap(s.windows[k-1]) {
		s.windows = append(s.windows, make([]packedWindow, 0, windowChunk))
	}
	last := &s.windows[len(s.windows)-1]
	*last = append(*last, p)
	s.n++
	return nil
}

// putSpan appends h's non-zero bucket span to the counts arena and returns
// its first bucket and length (0, 0 for an empty histogram).
func (s *MemorySink) putSpan(h *Hist) (first, n uint8) {
	lo, hi := 0, len(h.Counts)-1
	for lo <= hi && h.Counts[lo] == 0 {
		lo++
	}
	if lo > hi {
		return 0, 0
	}
	for h.Counts[hi] == 0 {
		hi--
	}
	for span := h.Counts[lo : hi+1]; len(span) > 0; {
		if k := len(s.counts); k == 0 || len(s.counts[k-1]) == cap(s.counts[k-1]) {
			s.counts = append(s.counts, make([]uint64, 0, countsChunk))
		}
		last := &s.counts[len(s.counts)-1]
		m := min(len(span), cap(*last)-len(*last))
		*last = append(*last, span[:m]...)
		span = span[m:]
	}
	return uint8(lo), uint8(hi - lo + 1)
}

// countsReader walks the counts arena in write order.
type countsReader struct {
	chunks   [][]uint64
	chunk, i int
}

// getHist rebuilds a histogram from its head and the next n arena counts.
func (r *countsReader) getHist(h *Hist, head histHead, first, n uint8) {
	h.Total, h.Max = head.total, head.max
	for dst := h.Counts[first : int(first)+int(n)]; len(dst) > 0; {
		if r.i == len(r.chunks[r.chunk]) {
			r.chunk, r.i = r.chunk+1, 0
		}
		m := copy(dst, r.chunks[r.chunk][r.i:])
		r.i += m
		dst = dst[m:]
	}
}

// Windows returns a copy of the windows received so far, in arrival order.
func (s *MemorySink) Windows() []WindowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WindowStats, s.n)
	rd := countsReader{chunks: s.counts}
	k := 0
	for _, chunk := range s.windows {
		for i := range chunk {
			p := &chunk[i]
			w := &out[k]
			k++
			w.Component = s.names[p.comp]
			w.StartUS, w.EndUS, w.CoveredUS = p.startUS, p.endUS, p.coveredUS
			w.Samples = p.samples
			w.SendOps, w.RecvOps = p.sendOps, p.recvOps
			w.DeltaSendOps, w.DeltaRecvOps = p.deltaSendOps, p.deltaRecvOps
			w.SendRate, w.RecvRate = p.sendRate, p.recvRate
			w.DepthHigh = p.depthHigh
			w.MemHigh = p.memHigh
			rd.getHist(&w.DepthHist, p.depth, p.depthFirst, p.depthN)
			rd.getHist(&w.LatencyHist, p.lat, p.latFirst, p.latN)
		}
	}
	return out
}

// Totals returns one whole-run aggregate per component, sorted by name:
// exactly MergeWindows(Windows()), without rebuilding the history.
func (s *MemorySink) Totals() []WindowStats {
	s.mu.Lock()
	out := append(make([]WindowStats, 0, len(s.totals)), s.totals...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	for i := range out {
		finishTotal(&out[i])
	}
	return out
}
