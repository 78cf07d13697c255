package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"embera/internal/core"
	"embera/internal/exp"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/serve"
)

// The served workload: a native pipeline relaunched in generations, with
// 2 ms windows over 200 µs application-level sampling, streamed over SSE
// while one writer connection scrapes /metrics and toggles the sampling
// period on a fixed schedule.
const (
	serveWindowUS  = 2000
	servePeriodUS  = 200
	servePace      = 5 * time.Millisecond
	writerInterval = 10 * time.Millisecond
	// closeDeadline bounds the server's shutdown. Generations last tens of
	// milliseconds, so even a stop that misses the running generation and
	// waits it out returns far sooner.
	closeDeadline = 20 * time.Second
	// quietDeadline fails a session whose SSE stream stays silent this
	// long.
	quietDeadline = 10 * time.Second
)

// serveMessages is the pipeline's per-generation message count.
func serveMessages(tiny bool) int {
	if tiny {
		return 200
	}
	return 10_000
}

// stampSink is the benchmark's own monitor sink, listed before the
// server's: the pump calls sinks in order, one window at a time, so its
// n-th window is the one the broker publishes with Seq n.
type stampSink struct {
	mu sync.Mutex
	at []time.Time
}

func (s *stampSink) WriteWindow(monitor.WindowStats) error {
	now := time.Now()
	s.mu.Lock()
	s.at = append(s.at, now)
	s.mu.Unlock()
	return nil
}

func (s *stampSink) stamp(seq uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq == 0 || seq > uint64(len(s.at)) {
		return time.Time{}, false
	}
	return s.at[seq-1], true
}

// sseEvent is one window as the SSE client received it.
type sseEvent struct {
	seq   uint64
	at    time.Time
	bytes int
}

// sseClient reads one SSE window stream until its context ends.
type sseClient struct {
	mu     sync.Mutex
	events []sseEvent
	first  chan struct{} // closed on the first event
	once   sync.Once
	err    error
	done   chan struct{}
}

// read subscribes to url and records every window until ctx ends.
func (c *sseClient) read(ctx context.Context, url string) {
	defer close(c.done)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		c.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.err = fmt.Errorf("SSE subscribe: HTTP %d", resp.StatusCode)
		return
	}
	c.err = parseSSE(resp.Body, c.add)
	if ctx.Err() != nil {
		c.err = nil
	}
}

func (c *sseClient) add(ev sseEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
	c.once.Do(func() { close(c.first) })
}

func (c *sseClient) snapshot() []sseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sseEvent(nil), c.events...)
}

// parseSSE calls emit for every window event in r. Events are blocks of
// "field: value" lines ended by a blank line; the data line carries the
// JSON event.
func parseSSE(r io.Reader, emit func(sseEvent)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var data []byte
	size := 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		size += len(line)
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if data != nil {
				var w struct {
					Seq uint64 `json:"seq"`
				}
				if err := json.Unmarshal(data, &w); err != nil {
					return fmt.Errorf("SSE data: %w", err)
				}
				emit(sseEvent{seq: w.Seq, at: time.Now(), bytes: size})
			}
			data, size = nil, 0
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

// checkSeq verifies one subscriber's stream against the broker's
// accounting once publishing has stopped and the stream has drained:
// sequence numbers strictly increase within [1, published], and every
// number missing from the stream is one of the subscriber's counted drops.
func checkSeq(evs []sseEvent, published, dropped uint64) error {
	var prev, gaps uint64
	for _, ev := range evs {
		if ev.seq <= prev || ev.seq > published {
			return fmt.Errorf("SSE seq %d after %d (published %d)", ev.seq, prev, published)
		}
		gaps += ev.seq - prev - 1
		prev = ev.seq
	}
	gaps += published - prev
	if gaps != dropped {
		return fmt.Errorf("SSE stream misses %d of %d windows, subscriber counted %d drops", gaps, published, dropped)
	}
	return nil
}

// pairLatencies pairs events by Seq with their earlier timestamps and
// returns the delays in microseconds.
func pairLatencies(evs []sseEvent, from func(seq uint64) (time.Time, bool)) []float64 {
	out := make([]float64, 0, len(evs))
	for _, ev := range evs {
		if t, ok := from(ev.seq); ok {
			out = append(out, float64(ev.at.Sub(t).Nanoseconds())/1e3)
		}
	}
	return out
}

// sessionRecord is one served session, measured in its own process.
type sessionRecord struct {
	Traced    bool
	SetupS    float64
	UnitsPerS float64
	CPUUS     float64 // per unit
	RSSBytes  int64
	Allocs    float64 // per unit
	Bytes     float64 // per unit
	GensPerS  float64

	FlushToSSE, FlushToBroker, SSEHop []float64 // µs
	ScrapeMS, ControlMS, LateMS       []float64
	SSEBytes, SSEEvents               int
	Published, Dropped                uint64
	BrokerDropped, RingDropped        uint64
	SamplesPerGen, WindowsPerGen      float64
	Firings, FiringsDropped           uint64

	// Per generation, from the wrappers: Build and Machine.Run times, and
	// (traced) the counter sweep after the run.
	BuildMS, RunMS              []float64
	SendOps, RecvOps, SendBytes []float64
	SendWaitUS, RecvWaitUS      []float64 // per op
	Attempted, Failed           int
	Problems                    []string
	Spans                       []span
}

func (s *sessionRecord) fail(format string, args ...any) {
	s.Failed++
	s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
}

// writerOp is one scheduled write-side request.
type writerOp struct {
	scrape   bool
	periodUS int64
}

// writerSchedule is the seeded open-loop write schedule: scrapes and
// set-period toggles in a seed-dependent order.
func writerSchedule(seed int64, n int) []writerOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]writerOp, n)
	toggle := int64(servePeriodUS)
	for i := range ops {
		if rng.Intn(2) == 0 {
			ops[i] = writerOp{scrape: true}
			continue
		}
		if toggle == servePeriodUS {
			toggle = servePeriodUS + 50
		} else {
			toggle = servePeriodUS
		}
		ops[i] = writerOp{periodUS: toggle}
	}
	return ops
}

// serveSession runs one session: start the server, subscribe over SSE,
// launch the assembly, install the policies, wait for the first window
// (the end of set-up), measure for d, then shut down and check.
func serveSession(cfg config, idx int, d time.Duration, rec *recorder) (s sessionRecord, err error) {
	s.Traced = rec != nil
	t0 := time.Now()
	sid := rec.begin("session", -1)
	defer func() {
		rec.end(sid)
		s.Spans = rec.snapshot()
	}()

	id := rec.begin("serve.start", sid)
	srv := serve.NewServer(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rec.end(id)
		return s, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	defer func() {
		_ = hs.Close()
		select {
		case <-served:
		case <-time.After(closeDeadline):
			err = errors.Join(err, errors.New("HTTP server did not stop"))
		}
	}()

	// Subscribe before the assembly publishes anything, so the stream is
	// accounted from Seq 1.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sse := &sseClient{first: make(chan struct{}), done: make(chan struct{})}
	go sse.read(ctx, base+"/v1/assemblies")
	if err := waitFor(quietDeadline, func() bool { return srv.Broker().Subscribers() > 0 }); err != nil {
		rec.end(id)
		return s, fmt.Errorf("SSE subscription: %w", err)
	}
	var inproc *brokerProbe
	if s.Traced {
		inproc = newBrokerProbe(srv.Broker())
		defer inproc.stop()
	}
	rec.end(id)

	id = rec.begin("serve.add_assembly", sid)
	stamps := &stampSink{}
	h := &hooks{rec: rec, parent: sid, sweep: s.Traced, watchChecks: true}
	p, perr := platform.Get("native")
	w, werr := platform.GetWorkload("pipeline")
	if perr != nil || werr != nil {
		rec.end(id)
		return s, errors.Join(perr, werr)
	}
	as, err := srv.AddAssembly("a0", timedPlatform{p, h}, timedWorkload{w, h}, exp.ServedOptions{
		Options: exp.Options{
			Options: platform.Options{Scale: serveMessages(cfg.tiny)},
			Monitor: &monitor.Config{
				Levels:   []monitor.LevelPeriod{{Level: core.LevelApplication, PeriodUS: servePeriodUS}},
				WindowUS: serveWindowUS,
				Sinks:    []monitor.Sink{stamps},
			},
		},
		Pace: servePace,
	})
	rec.end(id)
	if err != nil {
		return s, err
	}
	closed := false
	closeServer := func() error {
		if closed {
			return nil
		}
		closed = true
		return deadline(closeDeadline, nil, func() error { srv.Close(); return nil })
	}
	defer func() {
		if cerr := closeServer(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("server close: %w", cerr))
		}
	}()

	writer := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	id = rec.begin("serve.policies", sid)
	body, _ := json.Marshal(benchPolicies(serveWindowUS))
	_, perr = post(writer, base+"/v1/assemblies/a0/policies", body)
	rec.end(id)
	s.Attempted++
	if perr != nil {
		s.fail("installing policies: %v", perr)
	}

	select {
	case <-sse.first:
	case <-sse.done:
		return s, fmt.Errorf("SSE stream ended before the first window: %v", sse.err)
	case <-time.After(quietDeadline):
		return s, fmt.Errorf("no window reached the SSE client within %v", quietDeadline)
	}
	s.SetupS = time.Since(t0).Seconds()

	// Measure: the writer runs its open loop while the stream flows.
	mid := rec.begin("serve.measure", sid)
	run := as.Run()
	st0 := run.Stats()
	gens0 := len(h.generations())
	win0 := as.Windows()
	cpu0 := cpuTime()
	var a0, b0 uint64
	if s.Traced {
		a0, b0 = allocCounts()
	}
	start := time.Now()
	for i, op := range writerSchedule(cfg.seed*100+int64(idx), int(d/writerInterval)) {
		due := start.Add(time.Duration(i) * writerInterval)
		time.Sleep(time.Until(due))
		began := time.Now()
		s.LateMS = append(s.LateMS, float64(began.Sub(due).Nanoseconds())/1e6)
		var err error
		if op.scrape {
			err = get(writer, base+"/metrics")
			s.ScrapeMS = append(s.ScrapeMS, float64(time.Since(began).Nanoseconds())/1e6)
		} else {
			body := fmt.Sprintf(`{"action":"set-period","level":"application","period_us":%d}`, op.periodUS)
			_, err = post(writer, base+"/v1/assemblies/a0/control", []byte(body))
			s.ControlMS = append(s.ControlMS, float64(time.Since(began).Nanoseconds())/1e6)
		}
		s.Attempted++
		if err != nil {
			s.fail("writer op %d: %v", i, err)
		}
	}
	time.Sleep(time.Until(start.Add(d)))
	elapsed := time.Since(start)
	cpu1 := cpuTime()
	st1 := run.Stats()
	win1 := as.Windows()
	rec.end(mid)
	units := st1.Units - st0.Units
	if units == 0 {
		return s, fmt.Errorf("no generation completed in %v", elapsed)
	}
	if s.Traced {
		a1, b1 := allocCounts()
		s.Allocs, s.Bytes = float64(a1-a0)/float64(units), float64(b1-b0)/float64(units)
	}
	s.UnitsPerS = float64(units) / elapsed.Seconds()
	s.CPUUS = float64((cpu1 - cpu0).Microseconds()) / float64(units)
	gensDone := st1.CompletedChecks - st0.CompletedChecks
	s.GensPerS = float64(gensDone) / elapsed.Seconds()
	if gensDone > 0 {
		s.SamplesPerGen = float64(st1.Samples-st0.Samples) / float64(gensDone)
		s.WindowsPerGen = float64(win1-win0) / float64(gensDone)
	}
	s.RingDropped = st1.RingDropped - st0.RingDropped
	for _, g := range h.generations()[gens0:] {
		if g.runNs == 0 {
			continue
		}
		s.BuildMS = append(s.BuildMS, float64(g.buildNs)/1e6)
		s.RunMS = append(s.RunMS, float64(g.runNs)/1e6)
		if g.samples == nil {
			continue
		}
		var so, ro, sb, su, ru float64
		for _, fs := range g.samples {
			so += float64(fs.SendOps)
			ro += float64(fs.RecvOps)
			sb += float64(fs.SendBytes)
			su += float64(fs.SendUS)
			ru += float64(fs.RecvUS)
		}
		s.SendOps, s.RecvOps, s.SendBytes = append(s.SendOps, so), append(s.RecvOps, ro), append(s.SendBytes, sb)
		s.SendWaitUS, s.RecvWaitUS = append(s.SendWaitUS, su/max(so, 1)), append(s.RecvWaitUS, ru/max(ro, 1))
	}

	// Shut the assembly down, let the stream drain, then check it.
	id = rec.begin("serve.close", sid)
	cerr := closeServer()
	rec.end(id)
	if cerr != nil {
		return s, fmt.Errorf("server close: %w", cerr)
	}
	fired, _, _ := as.Ctl().Counters()
	s.Firings, s.FiringsDropped = fired, as.FiringsDropped()
	// Every generation must pass its self-check, except the one the
	// shutdown interrupted, which skips it. A generation that failed
	// before its check shows as a second unchecked one.
	gens := int(run.Stats().Generations)
	checked, bad := h.checkResults()
	s.Attempted += gens
	for _, e := range bad {
		s.fail("generation self-check: %v", e)
	}
	if unchecked := gens - checked; unchecked > 1 {
		s.fail("%d of %d generations never reached their self-check", unchecked-1, gens)
	}
	broker := srv.Broker()
	s.Published = broker.Published()
	s.BrokerDropped = broker.Dropped()
	var sub serve.SubscriberStats
	if err := waitFor(quietDeadline, func() bool {
		for _, ss := range broker.SubscriberSnapshots() {
			if ss.Filter == "" {
				sub = ss
				return uint64(len(sse.snapshot())) >= ss.Enqueued
			}
		}
		return false
	}); err != nil {
		return s, fmt.Errorf("SSE stream did not drain: %w", err)
	}
	if sub.Matched != sub.Enqueued+sub.Dropped || sub.Matched != s.Published {
		s.fail("subscriber accounting: matched %d, enqueued %d, dropped %d, published %d",
			sub.Matched, sub.Enqueued, sub.Dropped, s.Published)
	}
	evs := sse.snapshot()
	if err := checkSeq(evs, sub.Matched, sub.Dropped); err != nil {
		s.fail("%v", err)
	}
	s.Dropped = sub.Dropped
	var inWindow []sseEvent
	for _, ev := range evs {
		if !ev.at.Before(start) && ev.at.Before(start.Add(elapsed)) {
			inWindow = append(inWindow, ev)
			s.SSEBytes += ev.bytes
		}
	}
	s.SSEEvents = len(inWindow)
	s.FlushToSSE = pairLatencies(inWindow, stamps.stamp)
	if s.Traced {
		recv := inproc.snapshot()
		s.FlushToBroker = pairLatencies(recv, stamps.stamp)
		at := map[uint64]time.Time{}
		for _, ev := range recv {
			at[ev.seq] = ev.at
		}
		s.SSEHop = pairLatencies(inWindow, func(seq uint64) (time.Time, bool) {
			t, ok := at[seq]
			return t, ok
		})
	}
	cancel()
	select {
	case <-sse.done:
	case <-time.After(closeDeadline):
		return s, errors.New("SSE client did not stop")
	}
	s.RSSBytes = peakRSSBytes()
	return s, nil
}

// brokerProbe is an in-process broker subscriber stamping when each
// window reaches it.
type brokerProbe struct {
	b    *serve.Broker
	sub  *serve.Subscriber
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	evs  []sseEvent
}

func newBrokerProbe(b *serve.Broker) *brokerProbe {
	p := &brokerProbe{b: b, sub: b.Subscribe("a0"), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			select {
			case ev := <-p.sub.C():
				now := time.Now()
				p.mu.Lock()
				p.evs = append(p.evs, sseEvent{seq: ev.Seq, at: now})
				p.mu.Unlock()
			case <-p.quit:
				return
			}
		}
	}()
	return p
}

func (p *brokerProbe) snapshot() []sseEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]sseEvent(nil), p.evs...)
}

func (p *brokerProbe) stop() {
	close(p.quit)
	<-p.done
	p.b.Unsubscribe(p.sub)
}

func waitFor(d time.Duration, cond func() bool) error {
	end := time.Now().Add(d)
	for !cond() {
		if time.Now().After(end) {
			return fmt.Errorf("not reached within %v", d)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func get(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// runServe runs a short warm-up session, then sessions that split the

// runServe runs a short warm-up session, then sessions that split the
// measured time, each in a fresh process. A traced run alternates
// untraced and traced sessions.
func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	sessions := 4
	if cfg.tiny {
		sessions = 2
	}
	session := func(seconds float64, traced bool, idx int) (sessionRecord, bool) {
		c := cfg
		c.seconds = seconds
		var s sessionRecord
		err := inChild(c, traced, idx, &s)
		out.attempted += s.Attempted
		out.failed += s.Failed
		out.problems = append(out.problems, s.Problems...)
		if err != nil {
			out.attempted++
			out.fail("session %d: %v", idx, err)
		}
		return s, err == nil && s.Failed == 0
	}
	per := cfg.seconds / float64(sessions)
	if _, ok := session(min(per, 0.5), false, 0); !ok {
		return out, nil
	}
	var plain, traced []sessionRecord
	for i := 1; i <= sessions; i++ {
		s, ok := session(per, cfg.trace && i%2 == 0, i)
		if !ok {
			return out, nil
		}
		if s.Traced {
			traced = append(traced, s)
			out.spans = appendSpans(out.spans, s.Spans, fmt.Sprintf("%s-%d/%d", cfg.workload, cfg.seed, i))
		} else {
			plain = append(plain, s)
		}
	}
	med := func(ss []sessionRecord, f func(s sessionRecord) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	pool := func(ss []sessionRecord, f func(s sessionRecord) []float64) []float64 {
		var xs []float64
		for _, s := range ss {
			xs = append(xs, f(s)...)
		}
		return xs
	}
	sum := func(ss []sessionRecord, f func(s sessionRecord) float64) float64 {
		var t float64
		for _, s := range ss {
			t += f(s)
		}
		return t
	}
	rate := func(s sessionRecord) float64 { return s.UnitsPerS }
	out.e2e["units_per_s"] = metric{med(plain, rate), "1/s"}
	out.e2e["host_cpu_us_per_unit"] = metric{med(plain, func(s sessionRecord) float64 { return s.CPUUS }), "us"}
	out.e2e["peak_rss_mb"] = metric{med(plain, func(s sessionRecord) float64 { return float64(s.RSSBytes) / 1e6 }), "MB"}
	out.e2e["setup_s"] = metric{med(plain, func(s sessionRecord) float64 { return s.SetupS }), "s"}
	lat := pool(plain, func(s sessionRecord) []float64 { return s.FlushToSSE })
	out.extra["window_latency_p50_ms"] = metric{quantile(lat, 0.5) / 1e3, "ms"}
	out.extra["window_latency_p99_ms"] = metric{quantile(lat, 0.99) / 1e3, "ms"}
	out.extra["window_latency_samples"] = metric{float64(len(lat)), "count"}
	pub := sum(plain, func(s sessionRecord) float64 { return float64(s.Published) })
	drop := sum(plain, func(s sessionRecord) float64 { return float64(s.Dropped) })
	out.extra["window_loss_ratio"] = metric{drop / max(pub, 1), "ratio"}
	out.extra["generator_late_ms_p99"] = metric{quantile(pool(plain, func(s sessionRecord) []float64 { return s.LateMS }), 0.99), "ms"}
	out.extra["sessions"] = metric{float64(len(plain)), "count"}
	if !cfg.trace {
		return out, nil
	}

	l := out.layers
	per1 := func(f func(s sessionRecord) []float64) float64 { return median(pool(traced, f)) }
	q := func(f func(s sessionRecord) []float64, p float64) float64 { return quantile(pool(traced, f), p) }
	l["exp.build_ms"] = metric{per1(func(s sessionRecord) []float64 { return s.BuildMS }), "ms"}
	l["exp.run_ms"] = metric{per1(func(s sessionRecord) []float64 { return s.RunMS }), "ms"}
	l["exp.allocs_per_unit"] = metric{med(traced, func(s sessionRecord) float64 { return s.Allocs }), "count"}
	l["exp.alloc_bytes_per_unit"] = metric{med(traced, func(s sessionRecord) float64 { return s.Bytes }), "B"}
	l["exp.generations_per_s"] = metric{med(traced, func(s sessionRecord) float64 { return s.GensPerS }), "1/s"}
	l["core.send_ops"] = metric{per1(func(s sessionRecord) []float64 { return s.SendOps }), "count"}
	l["core.recv_ops"] = metric{per1(func(s sessionRecord) []float64 { return s.RecvOps }), "count"}
	l["core.send_bytes"] = metric{per1(func(s sessionRecord) []float64 { return s.SendBytes }), "B"}
	l["core.send_wait_us_per_op"] = metric{per1(func(s sessionRecord) []float64 { return s.SendWaitUS }), "us"}
	l["core.recv_wait_us_per_op"] = metric{per1(func(s sessionRecord) []float64 { return s.RecvWaitUS }), "us"}
	ops := l["core.send_ops"].Value + l["core.recv_ops"].Value
	l["sim.run_ns_per_op"] = metric{l["exp.run_ms"].Value * 1e6 / max(ops, 1), "ns"}
	l["monitor.samples"] = metric{med(traced, func(s sessionRecord) float64 { return s.SamplesPerGen }), "count"}
	l["monitor.windows"] = metric{med(traced, func(s sessionRecord) float64 { return s.WindowsPerGen }), "count"}
	l["monitor.ring_dropped"] = metric{sum(traced, func(s sessionRecord) float64 { return float64(s.RingDropped) }), "count"}
	l["cluster.worker_cpu_s"] = metric{0, "s"}
	l["cluster.lost_frames"] = metric{0, "count"}
	flush := func(s sessionRecord) []float64 { return s.FlushToBroker }
	hop := func(s sessionRecord) []float64 { return s.SSEHop }
	l["serve.flush_to_broker_us_p50"] = metric{q(flush, 0.5), "us"}
	l["serve.flush_to_broker_us_p99"] = metric{q(flush, 0.99), "us"}
	l["serve.sse_hop_us_p50"] = metric{q(hop, 0.5), "us"}
	l["serve.sse_hop_us_p99"] = metric{q(hop, 0.99), "us"}
	l["serve.sse_bytes_per_window"] = metric{sum(traced, func(s sessionRecord) float64 { return float64(s.SSEBytes) }) /
		max(sum(traced, func(s sessionRecord) float64 { return float64(s.SSEEvents) }), 1), "B"}
	l["serve.metrics_scrape_ms_p50"] = metric{per1(func(s sessionRecord) []float64 { return s.ScrapeMS }), "ms"}
	l["serve.control_post_ms_p50"] = metric{per1(func(s sessionRecord) []float64 { return s.ControlMS }), "ms"}
	l["serve.broker_dropped"] = metric{sum(traced, func(s sessionRecord) float64 { return float64(s.BrokerDropped) }), "count"}
	l["ctl.firings"] = metric{sum(traced, func(s sessionRecord) float64 { return float64(s.Firings) }), "count"}
	l["ctl.firings_dropped"] = metric{sum(traced, func(s sessionRecord) float64 { return float64(s.FiringsDropped) }), "count"}
	l["bench.generator_late_ms_p99"] = metric{q(func(s sessionRecord) []float64 { return s.LateMS }, 0.99), "ms"}
	off, on := med(plain, rate), med(traced, rate)
	l["bench.trace_overhead_pct"] = metric{(off - on) / off * 100, "%"}

	pr, err := runProbes("native", "pipeline", platform.Options{Scale: serveMessages(cfg.tiny)}, serveWindowUS/servePeriodUS)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range pr {
		l[k] = v
	}
	// Ledger per generation: mailbox hand-offs, sampling ticks, window
	// flushes, and per window one publish to each of the two subscribers
	// plus one policy evaluation.
	ns := func(name string) float64 { return pr[name].Value }
	const comps = 6 // Source, 2 stages × 2 workers, Sink
	windows := l["monitor.windows"].Value
	predicted := l["core.send_ops"].Value*ns("native.mailbox_send_ns") +
		l["monitor.samples"].Value/comps*ns("monitor.sample_tick_ns") +
		windows/comps*ns("monitor.aggregate_ns_per_window") +
		windows*(2*ns("serve.publish_ns_per_sub_1")+ns("ctl.observe_ns_per_window"))
	measured := l["exp.run_ms"].Value * 1e6
	l["bench.ledger_residual_pct"] = metric{(measured - predicted) / measured * 100, "%"}
	return out, nil
}
