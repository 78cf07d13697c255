package conformance

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"embera/internal/core"
	"embera/internal/correlate"
	"embera/internal/exp"
	"embera/internal/kptrace"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/trace"
)

// sharder is the structural seam a machine exposes when it partitioned the
// assembly across OS processes (the cluster platform): the placement
// function, and the coordinator's per-edge relay counters for cross-shard
// connections. When a run's machine implements it, flow conservation is
// additionally accounted per shard — a send==receive mismatch names the
// offending interface and the shards on both ends — and every cross-shard
// edge's wire-frame count must equal the producer's send ops.
type sharder interface {
	ShardOf(name string) int
	WireFrames(from, iface string) (uint64, bool)
}

// CheckRun verifies the per-run invariants on a completed run: flow
// conservation against the workload's closed-form flow model, the
// per-component postconditions and monitor/observer agreement. It applies
// to any run whose Instance implements platform.FlowModeler (fuzzwl,
// burstwl and replaywl runs) and that carried a monitor.
func CheckRun(run *exp.Result) error {
	fm, ok := run.Instance.(platform.FlowModeler)
	if !ok {
		return fmt.Errorf("conformance: run instance %T carries no flow model", run.Instance)
	}
	sh, _ := run.Machine.(sharder)
	if err := checkFlowConservation(fm.FlowModel(), run.Reports, sh); err != nil {
		return err
	}
	if err := checkComponents(run.Reports); err != nil {
		return err
	}
	return checkMonitorAgreement(run)
}

// checkComponents asserts the binding-independent postconditions of every
// component's final report: it terminated — done in the application view,
// no longer running in the OS view — with a non-negative execution time
// and positive memory; its middleware counters agree with its application
// counters; and its structure listing carries the observation interface
// first.
func checkComponents(reports map[string]core.ObsReport) error {
	names := make([]string, 0, len(reports))
	for name := range reports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := reports[name]
		if rep.App == nil || rep.OS == nil || rep.Middleware == nil {
			return fmt.Errorf("component: %s report misses a level", name)
		}
		if rep.App.State != "done" {
			return fmt.Errorf("component: %s state %q, want done", name, rep.App.State)
		}
		if rep.OS.Running {
			return fmt.Errorf("component: %s still running in OS view", name)
		}
		if rep.OS.ExecTimeUS < 0 {
			return fmt.Errorf("component: %s negative exec time %d", name, rep.OS.ExecTimeUS)
		}
		if rep.OS.MemBytes <= 0 {
			return fmt.Errorf("component: %s reports no memory", name)
		}
		var mwSend, mwRecv uint64
		for _, s := range rep.Middleware.Send {
			mwSend += s.Ops
		}
		for _, r := range rep.Middleware.Recv {
			mwRecv += r.Ops
		}
		if mwSend != rep.App.SendOps || mwRecv != rep.App.RecvOps {
			return fmt.Errorf("component: %s middleware/application counter mismatch: %d/%d vs %d/%d",
				name, mwSend, mwRecv, rep.App.SendOps, rep.App.RecvOps)
		}
		ifs := rep.App.Interfaces
		if len(ifs) < 2 || ifs[0].Name != core.ObsIfaceName || ifs[0].Type != "provided" {
			return fmt.Errorf("component: %s listing does not start with the observation interface", name)
		}
	}
	return nil
}

// checkFlowConservation asserts the per-interface accounting identity on
// the final reports against a workload's closed-form flow model: every
// sender's per-interface middleware counter and total send ops must equal
// the model's edge counts, and for every inbox the messages sent into it
// must equal messages received from it plus the depth reported in-flight
// at teardown — with the received count again matching the model.
//
// On sharded machines (sh non-nil) the identity is additionally accounted
// per process: the sends into every inbox are summed per source shard so a
// mismatch names the interface and the shard each half lives on, and every
// cross-shard edge must show exactly one wire frame per producer send op —
// the cross-process refinement of the same conservation law.
func checkFlowConservation(edges []platform.FlowEdge, reports map[string]core.ObsReport, sh sharder) error {
	if len(edges) == 0 {
		return fmt.Errorf("flow: workload's flow model is empty")
	}
	comps := map[string]bool{}
	wantSendOps := map[string]uint64{}
	type inboxKey struct{ comp, iface string }
	inboxModel := map[inboxKey]uint64{}
	inboxEdges := map[inboxKey][]platform.FlowEdge{}
	for _, e := range edges {
		comps[e.From], comps[e.To] = true, true
		wantSendOps[e.From] += e.Ops
		k := inboxKey{e.To, e.In}
		inboxModel[k] += e.Ops
		inboxEdges[k] = append(inboxEdges[k], e)
	}
	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep, ok := reports[name]
		if !ok {
			return fmt.Errorf("flow: no report for %s", name)
		}
		if rep.Middleware == nil || rep.App == nil {
			return fmt.Errorf("flow: %s report misses middleware/application sections", name)
		}
		if rep.App.SendOps != wantSendOps[name] {
			return fmt.Errorf("flow: %s sent %d ops, model says %d", name, rep.App.SendOps, wantSendOps[name])
		}
	}
	for _, e := range edges {
		ops := reports[e.From].Middleware.Send[e.Iface].Ops
		if ops != e.Ops {
			return fmt.Errorf("flow: %s.%s carried %d sends, model says %d", e.From, e.Iface, ops, e.Ops)
		}
		if sh == nil {
			continue
		}
		// Cross-shard edges carry one wire frame per send op, counted
		// by the coordinator relay; same-shard edges report !remote.
		if frames, remote := sh.WireFrames(e.From, e.Iface); remote && frames != ops {
			return fmt.Errorf("flow: %s.%s (shard %d -> %s on shard %d): %d wire frames != %d send ops",
				e.From, e.Iface, sh.ShardOf(e.From), e.To, sh.ShardOf(e.To), frames, ops)
		}
	}
	inboxes := make([]inboxKey, 0, len(inboxModel))
	for k := range inboxModel {
		inboxes = append(inboxes, k)
	}
	sort.Slice(inboxes, func(i, j int) bool {
		if inboxes[i].comp != inboxes[j].comp {
			return inboxes[i].comp < inboxes[j].comp
		}
		return inboxes[i].iface < inboxes[j].iface
	})
	for _, k := range inboxes {
		rep := reports[k.comp]
		// Conservation on the inbox: sends in == receives out + in-flight.
		// The per-shard breakdown survives to the error message on sharded
		// runs, so a cross-process mismatch names the producing shards.
		var sentInto uint64
		perShard := map[int]uint64{}
		for _, e := range inboxEdges[k] {
			ops := reports[e.From].Middleware.Send[e.Iface].Ops
			sentInto += ops
			if sh != nil {
				perShard[sh.ShardOf(e.From)] += ops
			}
		}
		depth := -1
		for _, ifc := range rep.App.Interfaces {
			if ifc.Name == k.iface && ifc.Type == "provided" {
				depth = ifc.Depth
			}
		}
		if depth < 0 {
			return fmt.Errorf("flow: %s listing misses the provided inbox %s", k.comp, k.iface)
		}
		recv := rep.Middleware.Recv[k.iface].Ops
		if sentInto != recv+uint64(depth) {
			if sh != nil {
				return fmt.Errorf("flow: %s inbox %s (shard %d): %d sent in != %d received + %d in flight; sends by source shard: %s",
					k.comp, k.iface, sh.ShardOf(k.comp), sentInto, recv, depth, formatShardOps(perShard))
			}
			return fmt.Errorf("flow: %s inbox %s: %d sent in != %d received + %d in flight",
				k.comp, k.iface, sentInto, recv, depth)
		}
		if recv != inboxModel[k] {
			return fmt.Errorf("flow: %s received %d on %s, model says %d", k.comp, recv, k.iface, inboxModel[k])
		}
	}
	return nil
}

// formatShardOps renders a per-shard op-count map in shard order, for the
// sharded flow-conservation failure message.
func formatShardOps(perShard map[int]uint64) string {
	shards := make([]int, 0, len(perShard))
	for s := range perShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	var b strings.Builder
	for i, s := range shards {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "shard %d: %d", s, perShard[s])
	}
	return b.String()
}

// checkMonitorAgreement asserts that the streaming monitor's windowed view
// of the run is consistent with the final pull-model observer report: the
// monitor is a sampled prefix of the truth, so its cumulative counters can
// never exceed the final ones, its merged window deltas must reproduce its
// cumulative totals, and every accepted sample must be accounted for in a
// window.
func checkMonitorAgreement(run *exp.Result) error {
	mon := run.Monitor
	if mon == nil {
		return fmt.Errorf("monitor: differential run carried no monitor")
	}
	// Each total folds every window of its component, so its Samples sum
	// over the totals is the sum over all windows.
	totals := mon.Totals()
	var windowed int
	for _, t := range totals {
		windowed += t.Samples
	}
	if accepted := mon.Samples(); uint64(windowed) != accepted {
		return fmt.Errorf("monitor: %d samples accepted but %d aggregated into windows",
			accepted, windowed)
	}
	for _, t := range totals {
		rep, ok := run.Reports[t.Component]
		if !ok {
			return fmt.Errorf("monitor: sampled unknown component %q", t.Component)
		}
		if t.SendOps > rep.App.SendOps || t.RecvOps > rep.App.RecvOps {
			return fmt.Errorf("monitor: %s sampled counters %d/%d exceed final report %d/%d",
				t.Component, t.SendOps, t.RecvOps, rep.App.SendOps, rep.App.RecvOps)
		}
		if t.DeltaSendOps != t.SendOps || t.DeltaRecvOps != t.RecvOps {
			return fmt.Errorf("monitor: %s window deltas %d/%d do not reproduce cumulative totals %d/%d",
				t.Component, t.DeltaSendOps, t.DeltaRecvOps, t.SendOps, t.RecvOps)
		}
	}
	return nil
}

// latencyHorizonUS is the minimum makespan above which a deterministic
// platform's monitor is required to have landed send-latency samples: one
// full aggregation window of the differential monitor config. Shorter
// runs can legitimately finish between sampler ticks.
const latencyHorizonUS = 2000

// checkTailLatency asserts the tail-latency invariants every differential
// run must satisfy, evaluated through the monitor windows: the
// merged send-latency histograms must report monotonic p50 <= p95 <= p99
// percentiles bounded by the run's makespan, and on deterministic
// platforms any run long enough to span an aggregation window must have
// produced latency samples at all — an empty histogram there means the
// monitor stopped seeing the send path.
func checkTailLatency(run *exp.Result) error {
	mon := run.Monitor
	if mon == nil {
		return fmt.Errorf("latency: differential run carried no monitor")
	}
	// Merging the per-component totals merges every window's histogram.
	var lat monitor.Hist
	for _, t := range mon.Totals() {
		lat.Merge(&t.LatencyHist)
	}
	if lat.Total == 0 {
		if run.Platform.Deterministic() && run.MakespanUS >= latencyHorizonUS {
			return fmt.Errorf("latency: no send-latency samples landed in any monitor window (makespan %dµs)", run.MakespanUS)
		}
		return nil // wall-clock samplers may legally miss short runs
	}
	p50, p95, p99 := lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99)
	if p50 > p95 || p95 > p99 {
		return fmt.Errorf("latency: percentiles not monotonic: p50=%dµs p95=%dµs p99=%dµs", p50, p95, p99)
	}
	if p99 > lat.Max {
		return fmt.Errorf("latency: p99 %dµs exceeds the observed high-water mark %dµs", p99, lat.Max)
	}
	if run.MakespanUS > 0 && p99 > run.MakespanUS {
		return fmt.Errorf("latency: p99 %dµs exceeds the run's makespan %dµs", p99, run.MakespanUS)
	}
	return nil
}

// checkKernelCorrelation joins the kernel-level copy trace with the EMBera
// send trace of the same execution and requires a complete two-way mapping:
// every kernel copy explained by an application send and vice versa.
func checkKernelCorrelation(ktr *kptrace.Tracer, rec *trace.Recorder) error {
	if _, dropped := rec.Stats(); dropped > 0 {
		return fmt.Errorf("correlate: event recorder overflowed (%d dropped); enlarge traceCapacity", dropped)
	}
	res := correlate.Kernel(ktr.Events(), rec.Events())
	if len(res.OrphanKernel) > 0 {
		return fmt.Errorf("correlate: %d kernel copies have no application-level explanation (coverage %.3f)",
			len(res.OrphanKernel), res.Coverage())
	}
	if len(res.OrphanSends) > 0 {
		return fmt.Errorf("correlate: %d application sends produced no kernel copy", len(res.OrphanSends))
	}
	return nil
}

// Fingerprint digests everything a completed run observed — the full
// observation reports plus the makespan — bit-exactly: two runs of the same
// workload on the same Deterministic platform must produce identical
// fingerprints.
func Fingerprint(run *exp.Result) (uint64, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "makespan=%d\n", run.MakespanUS)
	names := make([]string, 0, len(run.Reports))
	for n := range run.Reports {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// JSON over ObsReport covers every level — counters, timings,
		// interface listings — deterministically: pointers are
		// dereferenced and map keys sorted.
		blob, err := json.Marshal(run.Reports[n])
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "%s: %s\n", n, blob)
	}
	return h.Sum64(), nil
}
