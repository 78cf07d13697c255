package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"embera/internal/core"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point.
type span struct {
	Run    string `json:"run"` // workload-seed/session
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the session's start
	End    int64  `json:"end_ns"`
}

// recorder keeps one session's spans in memory until the session ends.
// A nil recorder records nothing, which is how untraced runs stay
// untraced.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

// begin opens a span under parent and returns its ID (-1 on a nil
// recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered measures the union of the children's intervals, clipped to the
// parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// generation is what the wrappers saw of one assembly build and run.
type generation struct {
	buildNs int64
	runNs   int64
	// samples is the application-level counter sweep taken right after
	// the machine returned, for runs whose observer is never queried
	// (served generations).
	samples []core.FastSample
}

// hooks collects what the timing wrappers observe. The wrappers call
// into the platform layer exactly as the harness would, adding only
// clock reads and, when rec is non-nil, spans.
type hooks struct {
	rec    *recorder
	parent int
	// sweep asks for a counter sweep after every machine run.
	sweep bool
	// watchChecks wraps built instances to count their self-checks, for
	// harnesses that do not report them (served generations).
	watchChecks bool

	mu       sync.Mutex
	checks   int // self-checks run
	badCheck []error
	runStart time.Time     // first Machine.Run entry
	cpuStart time.Duration // cpuTime at runStart
	gens     []generation
	machine  platform.Machine // the latest one handed out
}

func (h *hooks) noteBuild(d time.Duration) {
	h.mu.Lock()
	h.gens = append(h.gens, generation{buildNs: d.Nanoseconds()})
	h.mu.Unlock()
}

func (h *hooks) noteRunStart(t time.Time) {
	h.mu.Lock()
	if h.runStart.IsZero() {
		h.runStart, h.cpuStart = t, cpuTime()
	}
	h.mu.Unlock()
}

func (h *hooks) noteRun(d time.Duration, samples []core.FastSample) {
	h.mu.Lock()
	if n := len(h.gens); n > 0 && h.gens[n-1].runNs == 0 {
		h.gens[n-1].runNs = d.Nanoseconds()
		h.gens[n-1].samples = samples
	}
	h.mu.Unlock()
}

func (h *hooks) generations() []generation {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]generation(nil), h.gens...)
}

func (h *hooks) lastMachine() platform.Machine {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.machine
}

// timedWorkload spans Workload.Build. Name is the embedded workload's, so
// cluster workers re-resolve the same registered workload.
type timedWorkload struct {
	platform.Workload
	h *hooks
}

func (w timedWorkload) Build(a *core.App, p platform.Platform, opts platform.Options) (platform.Instance, error) {
	id := w.h.rec.begin("exp.build", w.h.parent)
	t0 := time.Now()
	inst, err := w.Workload.Build(a, p, opts)
	w.h.noteBuild(time.Since(t0))
	w.h.rec.end(id)
	if err == nil && w.h.watchChecks {
		inst = checkedInstance{inst, w.h}
	}
	return inst, err
}

// checkedInstance records the outcome of every self-check. It hides the
// instance's optional methods, so it is only used on in-process
// platforms.
type checkedInstance struct {
	platform.Instance
	h *hooks
}

func (c checkedInstance) Check() error {
	err := c.Instance.Check()
	c.h.mu.Lock()
	c.h.checks++
	if err != nil {
		c.h.badCheck = append(c.h.badCheck, err)
	}
	c.h.mu.Unlock()
	return err
}

// checkResults reports how many self-checks ran and which failed.
func (h *hooks) checkResults() (int, []error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.checks, append([]error(nil), h.badCheck...)
}

// timedPlatform hands out machines wrapped to span Machine.Run.
type timedPlatform struct {
	platform.Platform
	h *hooks
}

func (p timedPlatform) New(appName string) (platform.Machine, *core.App) {
	m, a := p.Platform.New(appName)
	tm := timedMachine{m: m, a: a, h: p.h}
	var out platform.Machine = tm
	// exp probes machines structurally for these seams; forward exactly
	// the ones the real machine has, or a sharded run would silently fall
	// back to a local one.
	if _, ok := m.(sharder); ok {
		out = shardedMachine{interruptibleMachine{tm}}
	} else if _, ok := m.(platform.Interruptible); ok {
		out = interruptibleMachine{tm}
	}
	p.h.mu.Lock()
	p.h.machine = out
	p.h.mu.Unlock()
	return out, a
}

// sharder is the seam set of the cluster machine.
type sharder interface {
	platform.Interruptible
	Distribute(workload string, opts platform.Options, inst platform.Instance) error
	TakeMonitor(mon *monitor.Monitor, cfg *monitor.Config)
	LostFrames() uint64
	WireFrames(from, iface string) (uint64, bool)
}

type timedMachine struct {
	m platform.Machine
	a *core.App
	h *hooks
}

func (t timedMachine) Run(horizonUS int64) error {
	id := t.h.rec.begin("exp.machine_run", t.h.parent)
	t0 := time.Now()
	t.h.noteRunStart(t0)
	err := t.m.Run(horizonUS)
	d := time.Since(t0)
	t.h.rec.end(id)
	var samples []core.FastSample
	if t.h.sweep {
		samples = t.a.SampleAll(core.LevelApplication, nil)
	}
	t.h.noteRun(d, samples)
	return err
}

func (t timedMachine) NowUS() int64 { return t.m.NowUS() }

func (t timedMachine) Kernel() *sim.Kernel { return t.m.Kernel() }

type interruptibleMachine struct{ timedMachine }

func (t interruptibleMachine) Interrupt() { t.m.(platform.Interruptible).Interrupt() }

type shardedMachine struct{ interruptibleMachine }

func (t shardedMachine) Distribute(workload string, opts platform.Options, inst platform.Instance) error {
	return t.m.(sharder).Distribute(workload, opts, inst)
}

func (t shardedMachine) TakeMonitor(mon *monitor.Monitor, cfg *monitor.Config) {
	t.m.(sharder).TakeMonitor(mon, cfg)
}

func (t shardedMachine) LostFrames() uint64 { return t.m.(sharder).LostFrames() }

func (t shardedMachine) WireFrames(from, iface string) (uint64, bool) {
	return t.m.(sharder).WireFrames(from, iface)
}
