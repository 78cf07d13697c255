package monitor

import (
	"math/bits"
	"sort"

	"embera/internal/core"
)

// histBuckets is the bucket count of the log-bucketed histograms: bucket 0
// holds the value 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i).
// 64 buckets cover the full non-negative int64 range.
const histBuckets = 64

// Hist is a fixed-size log-bucketed histogram of non-negative integer
// values (mailbox depths, primitive latencies in µs). The geometric bucket
// layout keeps percentile error bounded at a factor of two while the whole
// histogram stays a flat, mergeable array — the standard shape for
// streaming telemetry.
type Hist struct {
	Counts [histBuckets]uint64
	Total  uint64
	// Max is the largest observed value; quantiles are clamped to it so a
	// bucket's upper edge never reports a value that did not occur.
	Max int64
}

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1 + floor(log2 v)
}

// Observe adds one value. Negative values count as zero.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Counts[histBucket(v)]++
	h.Total++
	if v > h.Max {
		h.Max = v
	}
}

// Merge accumulates o into h.
func (h *Hist) Merge(o *Hist) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Total += o.Total
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the bucket containing the q·Total-th value,
// clamped to the largest observed value (so p99 never exceeds the
// high-water mark). An empty histogram reports 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.Total))
	if rank >= h.Total {
		rank = h.Total - 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			edge := int64(1)<<i - 1 // upper edge of [2^(i-1), 2^i)
			if edge > h.Max || edge < 0 {
				edge = h.Max
			}
			return edge
		}
	}
	return 0
}

// WindowStats is one component's aggregate over one sampling window — the
// unit the monitor hands to its sinks.
type WindowStats struct {
	Component string
	StartUS   int64 // window open (sampler virtual time)
	EndUS     int64 // window close
	Samples   int   // samples aggregated in this window

	// CoveredUS is the interval the counter deltas actually span: from the
	// sample the baseline was taken at to the last sample of this window.
	// It can stretch past EndUS-StartUS when the adaptive overhead
	// controller slowed the sampler (ticks rarer than windows) and shrinks
	// below it when the last tick landed early.
	CoveredUS int64

	// Cumulative operation counters at window close, and their deltas
	// within the window.
	SendOps, RecvOps           uint64
	DeltaSendOps, DeltaRecvOps uint64

	// SendRate / RecvRate are operations per virtual second over the
	// covered interval — not the nominal window length, which would skew
	// the rates whenever sampling was stretched or compressed.
	SendRate, RecvRate float64

	// DepthHigh is the mailbox-depth high-water mark observed in the
	// window; DepthHist is the log-bucketed occupancy distribution over
	// samples.
	DepthHigh int
	DepthHist Hist

	// LatencyHist is the distribution of the mean send-primitive latency
	// (µs) between consecutive samples — the sampled view of how long the
	// component's sends were blocking during the window.
	LatencyHist Hist

	// MemHigh is the OS-level memory high-water mark (bytes); zero when no
	// OS-level samples landed in the window.
	MemHigh int64
}

// Rate is a convenience: ops per virtual second given a window in µs.
func rate(ops uint64, winUS int64) float64 {
	if winUS <= 0 {
		return 0
	}
	return float64(ops) / (float64(winUS) / 1e6)
}

// compAgg is the per-component accumulation state inside the aggregator.
type compAgg struct {
	// Window-local state, reset at every flush.
	samples   int
	depthHigh int
	depthHist Hist
	latHist   Hist
	memHigh   int64
	last      Sample // most recent sample (cumulative counters)

	// Baselines: cumulative counters at the previous window close, for
	// delta/rate computation, and the sample time they were taken at —
	// the anchor of the covered interval the deltas are divided by.
	baseSendOps, baseRecvOps uint64
	baseTimeUS               int64

	// prev is the previous occupancy-bearing sample of any window, for
	// inter-sample latency.
	prev     Sample
	havePrev bool
}

// Aggregator folds a stream of samples into per-component window
// aggregates. It is not internally locked: the monitor drives it from a
// single pump flow.
type Aggregator struct {
	startUS int64
	comps   map[string]*compAgg
	order   []string
	out     []WindowStats // reusable flush buffer
}

// NewAggregator creates an aggregator whose first window opens at startUS.
func NewAggregator(startUS int64) *Aggregator {
	return &Aggregator{startUS: startUS, comps: make(map[string]*compAgg)}
}

// Add folds one sample into the current window. Each sample contributes
// the facets its observation level is responsible for: occupancy and
// latency from application/middleware/all samples, OS memory from
// OS/all samples, cumulative counters from any. With one sampler per
// level this keeps coincident ticks (e.g. a 1 ms app sampler and a 5 ms
// OS sampler firing together) from double-weighting the depth histogram.
func (ag *Aggregator) Add(s Sample) {
	ca := ag.comps[s.Component]
	if ca == nil {
		ca = &compAgg{baseTimeUS: ag.startUS}
		ag.comps[s.Component] = ca
		ag.order = append(ag.order, s.Component)
		sort.Strings(ag.order)
	}
	ca.samples++
	if s.Level != core.LevelOS {
		if s.Depth > ca.depthHigh {
			ca.depthHigh = s.Depth
		}
		ca.depthHist.Observe(int64(s.Depth))
		if ca.havePrev {
			if dOps := s.SendOps - ca.prev.SendOps; dOps > 0 {
				ca.latHist.Observe((s.SendUS - ca.prev.SendUS) / int64(dOps))
			}
		}
		ca.prev, ca.havePrev = s, true
	}
	if s.MemBytes > ca.memHigh {
		ca.memHigh = s.MemBytes
	}
	ca.last = s
}

// Flush closes the current window at endUS and returns one WindowStats per
// component that received samples, in component-name order. Components with
// no samples this window are skipped (their counters resume from the old
// baseline next window). The next window opens at endUS.
//
// The returned slice is the aggregator's own flush buffer, valid until the
// next Flush: consumers stream the windows to sinks (which copy what they
// retain) rather than holding the slice, so the per-window allocation is
// paid once per run instead of once per window.
func (ag *Aggregator) Flush(endUS int64) []WindowStats {
	out := ag.out[:0]
	winUS := endUS - ag.startUS
	for _, name := range ag.order {
		ca := ag.comps[name]
		if ca.samples == 0 {
			continue
		}
		dSend := ca.last.SendOps - ca.baseSendOps
		dRecv := ca.last.RecvOps - ca.baseRecvOps
		// The deltas accumulated between the baseline sample and the last
		// sample of this window — an interval that stretches past the
		// nominal window whenever the adaptive controller slowed the
		// sampler. Dividing by winUS there would inflate the rates.
		covered := ca.last.TimeUS - ca.baseTimeUS
		if covered <= 0 {
			covered = winUS
		}
		out = append(out, WindowStats{
			Component: name,
			StartUS:   ag.startUS,
			EndUS:     endUS,
			Samples:   ca.samples,
			CoveredUS: covered,
			SendOps:   ca.last.SendOps, RecvOps: ca.last.RecvOps,
			DeltaSendOps: dSend, DeltaRecvOps: dRecv,
			SendRate: rate(dSend, covered), RecvRate: rate(dRecv, covered),
			DepthHigh:   ca.depthHigh,
			DepthHist:   ca.depthHist,
			LatencyHist: ca.latHist,
			MemHigh:     ca.memHigh,
		})
		ca.baseSendOps, ca.baseRecvOps = ca.last.SendOps, ca.last.RecvOps
		ca.baseTimeUS = ca.last.TimeUS
		ca.samples, ca.depthHigh, ca.memHigh = 0, 0, 0
		ca.depthHist, ca.latHist = Hist{}, Hist{}
	}
	ag.startUS = endUS
	ag.out = out
	return out
}

// MergeWindows folds a sequence of WindowStats (typically every window of a
// run) into one cumulative aggregate per component, sorted by name: the
// whole-run view the CLI prints. Rates are recomputed over the merged span.
// It is the reference fold: MemorySink.Totals keeps the same aggregates
// incrementally.
func MergeWindows(windows []WindowStats) []WindowStats {
	byComp := map[string]*WindowStats{}
	var order []string
	for i := range windows {
		w := &windows[i]
		t := byComp[w.Component]
		if t == nil {
			cp := *w
			byComp[w.Component] = &cp
			order = append(order, w.Component)
			continue
		}
		foldWindow(t, w)
	}
	sort.Strings(order)
	out := make([]WindowStats, 0, len(order))
	for _, name := range order {
		t := byComp[name]
		finishTotal(t)
		out = append(out, *t)
	}
	return out
}

// foldWindow folds w into t, the running aggregate of w's component, which
// started as a copy of the component's first window. Rates are left to
// finishTotal.
func foldWindow(t, w *WindowStats) {
	if w.StartUS < t.StartUS {
		t.StartUS = w.StartUS
	}
	if w.EndUS > t.EndUS {
		t.EndUS = w.EndUS
	}
	t.Samples += w.Samples
	t.CoveredUS += w.CoveredUS
	t.SendOps, t.RecvOps = w.SendOps, w.RecvOps
	t.DeltaSendOps += w.DeltaSendOps
	t.DeltaRecvOps += w.DeltaRecvOps
	if w.DepthHigh > t.DepthHigh {
		t.DepthHigh = w.DepthHigh
	}
	t.DepthHist.Merge(&w.DepthHist)
	t.LatencyHist.Merge(&w.LatencyHist)
	if w.MemHigh > t.MemHigh {
		t.MemHigh = w.MemHigh
	}
}

// finishTotal recomputes a folded aggregate's rates over its merged span.
func finishTotal(t *WindowStats) {
	cov := t.CoveredUS
	if cov <= 0 {
		cov = t.EndUS - t.StartUS
	}
	t.SendRate = rate(t.DeltaSendOps, cov)
	t.RecvRate = rate(t.DeltaRecvOps, cov)
}
