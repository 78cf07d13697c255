package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"embera/internal/core"
	"embera/internal/mjpeg"
	"embera/internal/monitor"
)

// testUnit stands in for the struct payloads real workloads register
// (block groups, pixel groups).
type testUnit struct {
	ID   int64
	Tag  string
	Vals []int64
}

func (u testUnit) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, uint64(u.ID))
	b = appendString(b, u.Tag)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(u.Vals)))
	for _, v := range u.Vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b, nil
}

func (u *testUnit) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	id, tag, n := int64(d.u64()), d.str(), d.u32()
	if d.err == nil && int(n) > (len(d.b)-d.off)/8 {
		return fmt.Errorf("testUnit: %d values cannot fit %d bytes", n, len(d.b)-d.off)
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(d.u64())
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("testUnit: %d trailing bytes", len(d.b)-d.off)
	}
	*u = testUnit{ID: id, Tag: tag, Vals: vals}
	return nil
}

func init() { Register[testUnit]("wire.testUnit") }

// randFrame builds a random frame of a random type, populating exactly the
// fields DecodeFrame would, so a round-tripped frame must be DeepEqual.
func randFrame(rng *rand.Rand) Frame {
	types := []byte{
		TypeHello, TypeData, TypeEdgeClose, TypeWindows, TypeReports,
		TypeShardDone, TypeTerminate, TypeCompKill, TypeBye, TypeError,
	}
	f := Frame{Type: types[rng.Intn(len(types))]}
	switch f.Type {
	case TypeHello, TypeShardDone:
		f.Shard = rng.Uint32()
	case TypeData:
		f.Edge = rng.Uint32()
		f.Bytes = rng.Int63()
		f.From = randString(rng, rng.Intn(24))
		f.Payload = randPayload(rng)
	case TypeEdgeClose:
		f.Edge = rng.Uint32()
	case TypeWindows:
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			f.Windows = append(f.Windows, randWindow(rng))
		}
		f.Shard = rng.Uint32()
	case TypeReports:
		f.Shard = rng.Uint32()
		f.Units = rng.Int63()
		f.Checksum = rng.Uint64()
		f.Reports = randReports(rng)
	case TypeCompKill, TypeError:
		f.Name = randString(rng, 1+rng.Intn(32))
	}
	return f
}

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

// randName is ASCII-only: report maps cross the wire as JSON, which replaces
// invalid UTF-8, so names there must stay in the printable range.
func randName(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._"
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

func randPayload(rng *rand.Rand) any {
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return int(rng.Int63()) - rng.Intn(2)*int(rng.Int63())
	case 3:
		return rng.Int63() - 1<<62
	case 4:
		return rng.Uint64()
	case 5:
		return (rng.Float64() - 0.5) * 1e12
	case 6:
		return randString(rng, rng.Intn(64))
	case 7:
		b := make([]byte, 1+rng.Intn(64)) // empty slices round-trip as nil
		rng.Read(b)
		return b
	default:
		return testUnit{
			ID:   rng.Int63(),
			Tag:  randString(rng, 1+rng.Intn(8)),
			Vals: []int64{rng.Int63(), rng.Int63()},
		}
	}
}

func randWindow(rng *rand.Rand) monitor.WindowStats {
	w := monitor.WindowStats{
		Component:    randString(rng, rng.Intn(16)),
		StartUS:      rng.Int63(),
		EndUS:        rng.Int63(),
		CoveredUS:    rng.Int63(),
		Samples:      rng.Intn(1 << 20),
		SendOps:      rng.Uint64(),
		RecvOps:      rng.Uint64(),
		DeltaSendOps: rng.Uint64(),
		DeltaRecvOps: rng.Uint64(),
		SendRate:     rng.Float64() * 1e9,
		RecvRate:     rng.Float64() * 1e9,
		DepthHigh:    rng.Intn(1 << 16),
		MemHigh:      rng.Int63(),
	}
	for i := range w.DepthHist.Counts {
		w.DepthHist.Counts[i] = rng.Uint64() % 1e6
		w.LatencyHist.Counts[i] = rng.Uint64() % 1e6
	}
	w.DepthHist.Total = rng.Uint64()
	w.DepthHist.Max = rng.Int63()
	w.LatencyHist.Total = rng.Uint64()
	w.LatencyHist.Max = rng.Int63()
	return w
}

func randReports(rng *rand.Rand) map[string]core.ObsReport {
	m := make(map[string]core.ObsReport)
	for i := 0; i < 1+rng.Intn(3); i++ {
		name := randName(rng, 1+rng.Intn(8))
		rep := core.ObsReport{Component: name, Level: core.LevelApplication}
		if rng.Intn(2) == 0 {
			rep.App = &core.AppReport{
				SendOps: rng.Uint64(),
				RecvOps: rng.Uint64(),
				State:   "done",
			}
		}
		if rng.Intn(2) == 0 {
			rep.Probes = map[string]int64{"frames": rng.Int63()}
		}
		m[name] = rep
	}
	return m
}

// TestFrameRoundTripFuzzed encodes a fuzzed sequence of frames of every type
// into one shared buffer — the way a conn writer batches them — then walks
// the length prefixes back and requires each decode to reproduce the source
// frame exactly.
func TestFrameRoundTripFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const frames = 500
	var want []Frame
	var buf []byte
	for i := 0; i < frames; i++ {
		f := randFrame(rng)
		var err error
		buf, err = AppendFrame(buf, &f)
		if err != nil {
			t.Fatalf("frame %d (%+v): %v", i, f, err)
		}
		want = append(want, f)
	}
	for i, w := range want {
		if len(buf) < 4 {
			t.Fatalf("buffer exhausted before frame %d", i)
		}
		n := binary.LittleEndian.Uint32(buf)
		if int(n) > len(buf)-4 {
			t.Fatalf("frame %d: length prefix %d overruns buffer", i, n)
		}
		var got Frame
		if err := DecodeFrame(buf[4:4+n], &got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d round trip:\n got %+v\nwant %+v", i, got, w)
		}
		buf = buf[4+n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(buf))
	}
}

// TestTruncatedFrameRejected cuts a representative frame of every type at
// every possible offset: each strict prefix must decode to an error, never a
// partial frame and never a panic. One trailing byte must also be rejected.
func TestTruncatedFrameRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := []Frame{
		{Type: TypeHello, Shard: 3},
		{Type: TypeData, Edge: 9, Bytes: 640, From: "Source.out", Payload: uint64(42)},
		{Type: TypeData, Edge: 1, Payload: testUnit{ID: 5, Tag: "g", Vals: []int64{1}}},
		{Type: TypeEdgeClose, Edge: 2},
		{Type: TypeWindows, Shard: 1, Windows: []monitor.WindowStats{randWindow(rng)}},
		{Type: TypeReports, Shard: 0, Units: 7, Checksum: 0xdead, Reports: randReports(rng)},
		{Type: TypeShardDone, Shard: 1},
		{Type: TypeTerminate},
		{Type: TypeCompKill, Name: "S1W1"},
		{Type: TypeBye},
		{Type: TypeError, Name: "worker 1: boom"},
	}
	for _, f := range samples {
		enc, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("type %d: %v", f.Type, err)
		}
		body := enc[4:]
		var got Frame
		for cut := 0; cut < len(body); cut++ {
			if err := DecodeFrame(body[:cut], &got); err == nil {
				t.Fatalf("type %d: prefix of %d/%d bytes decoded cleanly", f.Type, cut, len(body))
			}
		}
		withTrailing := append(append([]byte(nil), body...), 0x5a)
		if err := DecodeFrame(withTrailing, &got); err == nil {
			t.Fatalf("type %d: trailing garbage decoded cleanly", f.Type)
		} else if !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("type %d: trailing garbage error does not say so: %v", f.Type, err)
		}
		if err := DecodeFrame(body, &got); err != nil {
			t.Fatalf("type %d: the untruncated body must still decode: %v", f.Type, err)
		}
	}
}

// TestUnknownTypeAndKindRejected covers the tag-validation paths: encoder
// and decoder both refuse frame types outside the protocol, and a data
// frame with an unknown payload kind is an error, not a nil payload.
func TestUnknownTypeAndKindRejected(t *testing.T) {
	for _, typ := range []byte{0, TypeError + 1, 200} {
		if _, err := AppendFrame(nil, &Frame{Type: typ}); err == nil {
			t.Errorf("AppendFrame accepted unknown type %d", typ)
		}
		var f Frame
		if err := DecodeFrame([]byte{typ}, &f); err == nil {
			t.Errorf("DecodeFrame accepted unknown type %d", typ)
		}
	}
	// A hand-built data frame body with payload kind 250.
	body := []byte{TypeData}
	body = binary.LittleEndian.AppendUint32(body, 1)  // edge
	body = binary.LittleEndian.AppendUint64(body, 64) // bytes
	body = binary.LittleEndian.AppendUint32(body, 0)  // empty From
	body = append(body, 250)
	var f Frame
	if err := DecodeFrame(body, &f); err == nil {
		t.Error("unknown payload kind decoded cleanly")
	} else if !strings.Contains(err.Error(), "payload kind") {
		t.Errorf("unknown-kind error does not name the kind: %v", err)
	}
}

// TestOversizedFrameRejected: the encoder refuses to emit a body larger
// than MaxFrameBytes, and a window batch count that cannot fit its body is
// rejected before the decoder allocates for it.
func TestOversizedFrameRejected(t *testing.T) {
	big := strings.Repeat("x", MaxFrameBytes) // body = 1 type + 4 len + this
	buf := make([]byte, 0, MaxFrameBytes+64)
	if _, err := AppendFrame(buf, &Frame{Type: TypeError, Name: big}); err == nil {
		t.Error("AppendFrame emitted a frame beyond MaxFrameBytes")
	}

	body := []byte{TypeWindows}
	body = binary.LittleEndian.AppendUint32(body, 0)     // shard
	body = binary.LittleEndian.AppendUint32(body, 1<<30) // claimed windows
	var f Frame
	if err := DecodeFrame(body, &f); err == nil {
		t.Error("absurd window batch count decoded cleanly")
	} else if !strings.Contains(err.Error(), "cannot fit") {
		t.Errorf("window batch error does not explain the bound: %v", err)
	}
}

// bufConn is an in-memory stream: frames written through a Conn come back
// out in order, and reading past the end is a clean io.EOF.
type bufConn struct{ bytes.Buffer }

func (b *bufConn) Close() error { return nil }

// TestConnRoundTripAndEOF drives the stream framing layer: frame counters
// advance, the length prefix reconstitutes each frame, a clean end of
// stream is io.EOF unwrapped, and corrupt length prefixes are rejected
// before any body allocation.
func TestConnRoundTripAndEOF(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewConn(&bufConn{})
	var want []Frame
	for i := 0; i < 64; i++ {
		f := randFrame(rng)
		if err := c.WriteFrame(&f); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		want = append(want, f)
	}
	if n := c.FramesOut(); n != 64 {
		t.Errorf("FramesOut = %d, want 64", n)
	}
	for i, w := range want {
		var got Frame
		if err := c.ReadFrame(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("conn frame %d:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if n := c.FramesIn(); n != 64 {
		t.Errorf("FramesIn = %d, want 64", n)
	}
	var f Frame
	if err := c.ReadFrame(&f); err != io.EOF {
		t.Errorf("read past end = %v, want io.EOF", err)
	}

	for _, n := range []uint32{0, MaxFrameBytes + 1} {
		var raw bufConn
		hdr := binary.LittleEndian.AppendUint32(nil, n)
		raw.Write(hdr)
		if err := NewConn(&raw).ReadFrame(&f); err == nil {
			t.Errorf("length prefix %d accepted", n)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("length prefix %d: error does not say out of range: %v", n, err)
		}
	}
}

// TestEncodeDataFrameAllocs pins the hot path: a data frame with a scalar
// or registered struct payload must encode into a pre-grown buffer without
// allocating — the same budget the trace codec's event encode holds.
func TestEncodeDataFrameAllocs(t *testing.T) {
	g := realGroups(t, mjpeg.EncodeOptions{Quality: 75}, 4)[1]
	payloads := []any{nil, true, int(-17), int64(1 << 40), uint64(42), float64(2.75), "unit-99",
		testUnit{ID: 3, Tag: "u", Vals: []int64{1, 2}}, g, mjpeg.TransformGroup(&g)}
	buf := make([]byte, 0, 64<<10)
	for _, p := range payloads {
		f := Frame{Type: TypeData, Edge: 3, Bytes: 128, From: "Source.out", Payload: p}
		allocs := testing.AllocsPerRun(200, func() {
			b, err := AppendFrame(buf[:0], &f)
			if err != nil || len(b) == 0 {
				t.Fatal("encode failed")
			}
		})
		if allocs != 0 {
			t.Errorf("payload %T: %.1f allocs per encode, want 0", p, allocs)
		}
	}
}
