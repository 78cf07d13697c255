package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"embera/internal/cluster"
)

func TestMain(m *testing.M) {
	// The smoke runs re-exec the test binary: as cluster shard workers,
	// and as session processes.
	cluster.MaybeWorkerMain()
	for _, a := range os.Args[1:] {
		if a == "--child" {
			os.Exit(run(os.Args[1:]))
		}
	}
	os.Exit(m.Run())
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{2, 1}); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func seqs(ns ...uint64) []sseEvent {
	evs := make([]sseEvent, len(ns))
	for i, n := range ns {
		evs[i] = sseEvent{seq: n}
	}
	return evs
}

func TestCheckSeq(t *testing.T) {
	for _, c := range []struct {
		name               string
		evs                []sseEvent
		published, dropped uint64
		ok                 bool
	}{
		{"gap-free", seqs(1, 2, 3, 4), 4, 0, true},
		{"counted drops in the middle", seqs(1, 2, 5, 6), 6, 2, true},
		{"counted drops at both ends", seqs(2, 3), 5, 3, true},
		{"uncounted gap", seqs(1, 2, 4), 4, 0, false},
		{"more drops counted than missing", seqs(1, 2, 3), 3, 1, false},
		{"stream stops early", seqs(1, 2), 4, 0, false},
		{"duplicate", seqs(1, 2, 2, 3), 3, 0, false},
		{"reordered", seqs(1, 3, 2), 3, 0, false},
		{"beyond published", seqs(1, 2, 3), 2, 0, false},
	} {
		err := checkSeq(c.evs, c.published, c.dropped)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkSeq error %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func TestPairLatencies(t *testing.T) {
	base := time.Unix(100, 0)
	stamps := &stampSink{at: []time.Time{base, base.Add(time.Millisecond), base.Add(2 * time.Millisecond)}}
	evs := []sseEvent{
		{seq: 1, at: base.Add(100 * time.Microsecond)},
		{seq: 3, at: base.Add(2*time.Millisecond + 250*time.Microsecond)},
		{seq: 9, at: base.Add(time.Second)}, // never stamped: skipped
	}
	got := pairLatencies(evs, stamps.stamp)
	want := []float64{100, 250}
	if len(got) != len(want) {
		t.Fatalf("paired %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("latency %d = %v µs, want %v", i, got[i], want[i])
		}
	}
}

func TestParseSSE(t *testing.T) {
	stream := "retry: 2000\n\n" +
		"event: window\nid: 1\ndata: {\"seq\":1,\"subscriber_dropped\":0}\n\n" +
		"event: window\nid: 4\ndata: {\"seq\":4,\"subscriber_dropped\":2}\n\n"
	var got []sseEvent
	if err := parseSSE(strings.NewReader(stream), func(ev sseEvent) { got = append(got, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].seq != 1 || got[1].seq != 4 {
		t.Fatalf("parsed %+v", got)
	}
	if want := len("event: window\nid: 4\ndata: {\"seq\":4,\"subscriber_dropped\":2}\n\n"); got[1].bytes != want {
		t.Errorf("event bytes %d, want %d", got[1].bytes, want)
	}
	if err := parseSSE(strings.NewReader("data: {not json\n\n"), func(sseEvent) {}); err == nil {
		t.Error("malformed data line accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "session", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "setup", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "run", Start: 20, End: 60}, // overlaps setup
		{ID: 3, Parent: 2, Name: "build", Start: 25, End: 35},
		{ID: 4, Parent: 0, Name: "check", Start: 90, End: 120}, // clipped to the parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"session": 40, "setup": 20, "run": 30, "build": 10, "check": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json and the driver's
// metric tables in step.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, driver map[string]string) {
		if len(listed) != len(driver) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the driver reports %d", kind, len(listed), len(driver))
		}
		for _, m := range listed {
			if u, ok := driver[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): driver has unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eUnits)
	check("per_layer", b.PerLayer, layerUnits)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the driver runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not run by the driver", w.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires every check to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := useLocalTemp(); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.2, trace: traced, tiny: true}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if out.failed > 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%t: %d of %d operations failed: %v", name, traced, out.failed, out.attempted, out.problems)
			}
			want, got := e2eUnits, out.e2e
			if traced {
				want, got = layerUnits, out.layers
			}
			for m := range want {
				v, ok := got[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%t: metric %s missing or not finite (%v)", name, traced, m, v)
				}
			}
			if !traced {
				for m, v := range got {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}
