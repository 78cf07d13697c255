package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"embera/internal/mjpeg"
	"embera/internal/monitor"
)

// The decoder's group types, registered under the names the MJPEG workload
// gives them.
func init() {
	Register[mjpeg.BlockGroup]("mjpeg.BlockGroup")
	Register[mjpeg.PixelGroup]("mjpeg.PixelGroup")
}

// realGroups splits one synthesized frame into numGroups block groups — the
// messages Fetch sends to the IDCT stage.
func realGroups(t testing.TB, opts mjpeg.EncodeOptions, numGroups int) []mjpeg.BlockGroup {
	t.Helper()
	data, err := mjpeg.Encode(mjpeg.SynthFrame(48, 40, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mjpeg.ParseFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := h.DecodeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := mjpeg.SplitBlocks(3, h, blocks, numGroups)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

func roundTrip(t *testing.T, f *Frame) Frame {
	t.Helper()
	enc, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := DecodeFrame(enc[4:], &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGroupPayloadsThroughFrames sends real block and pixel groups through
// AppendFrame/DecodeFrame: the header geometry the IDCT and Reorder stages
// read survives, every decoded block transforms exactly as its source, and
// the decoded pixel groups reassemble into the reference decode.
func TestGroupPayloadsThroughFrames(t *testing.T) {
	for _, opts := range []mjpeg.EncodeOptions{
		{Quality: 80},
		{Quality: 50, Subsample420: true, RestartInterval: 2},
	} {
		groups := realGroups(t, opts, 4)
		h := groups[0].Header
		asm := mjpeg.NewFrameAssembler()
		var img *mjpeg.Image
		for _, g := range groups {
			f := roundTrip(t, &Frame{Type: TypeData, Edge: 2, Bytes: 4096, From: "Fetch", Payload: g})
			got, ok := f.Payload.(mjpeg.BlockGroup)
			if !ok {
				t.Fatalf("block group decoded as %T", f.Payload)
			}
			gh := got.Header
			if gh.Width != h.Width || gh.Height != h.Height || gh.RestartInterval != h.RestartInterval ||
				gh.NumComponents() != h.NumComponents() || gh.TotalBlocks() != h.TotalBlocks() {
				t.Fatalf("header %+v does not match %+v", *gh, *h)
			}
			hx, hy := h.MCUs()
			if gx, gy := gh.MCUs(); gx != hx || gy != hy {
				t.Fatalf("MCU grid %dx%d became %dx%d", hx, hy, gx, gy)
			}
			if got.FrameIndex != g.FrameIndex || got.GroupIndex != g.GroupIndex || got.NumGroups != g.NumGroups ||
				!reflect.DeepEqual(got.Blocks, g.Blocks) {
				t.Fatalf("group %d round trip differs", g.GroupIndex)
			}
			for i := range g.Blocks {
				if gh.TransformBlock(&got.Blocks[i]) != h.TransformBlock(&g.Blocks[i]) {
					t.Fatalf("group %d block %d transforms differently after the wire", g.GroupIndex, i)
				}
			}
			f = roundTrip(t, &Frame{Type: TypeData, Edge: 5, From: "IDCT_1", Payload: mjpeg.TransformGroup(&got)})
			pix, ok := f.Payload.(mjpeg.PixelGroup)
			if !ok {
				t.Fatalf("pixel group decoded as %T", f.Payload)
			}
			var err error
			if img, err = asm.Add(&pix); err != nil {
				t.Fatal(err)
			}
		}
		want := mjpeg.NewFrameAssembler()
		var wantImg *mjpeg.Image
		for _, g := range groups {
			pg := mjpeg.TransformGroup(&g)
			var err error
			if wantImg, err = want.Add(&pg); err != nil {
				t.Fatal(err)
			}
		}
		if img == nil || !reflect.DeepEqual(img, wantImg) {
			t.Fatalf("%+v: frame reassembled from wire groups differs from the in-process one", opts)
		}
	}
}

// TestStructPayloadRejected: an unregistered struct type is an encode error
// that names the type and wraps ErrEncode; an unregistered name, and group
// bodies that are truncated, carry trailing garbage or claim more blocks
// than they hold, are decode errors.
func TestStructPayloadRejected(t *testing.T) {
	type unregistered struct{ N int }
	_, err := AppendFrame(nil, &Frame{Type: TypeData, Payload: unregistered{1}})
	if !errors.Is(err, ErrEncode) {
		t.Fatalf("unregistered payload: error %v does not wrap ErrEncode", err)
	}
	if !strings.Contains(err.Error(), "wire.unregistered") {
		t.Errorf("unregistered payload error does not name the type: %v", err)
	}

	structFrame := func(name string, payload []byte) []byte {
		body := []byte{TypeData}
		body = binary.LittleEndian.AppendUint32(body, 1)
		body = binary.LittleEndian.AppendUint64(body, 64)
		body = appendString(body, "Fetch")
		body = append(body, kindStruct)
		body = appendString(body, name)
		return appendString(body, string(payload))
	}
	group, err := realGroups(t, mjpeg.EncodeOptions{Quality: 75}, 2)[0].AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeFrame(structFrame("mjpeg.BlockGroup", group), &f); err != nil {
		t.Fatalf("hand-built valid frame: %v", err)
	}
	for _, c := range []struct {
		what, name string
		payload    []byte
		want       string
	}{
		{"unregistered name", "mjpeg.NoSuchGroup", group, "not registered"},
		{"truncated group", "mjpeg.BlockGroup", group[:len(group)-1], "mjpeg.BlockGroup"},
		{"trailing garbage", "mjpeg.BlockGroup", append(append([]byte(nil), group...), 1, 2, 3), "trailing"},
		{"over-count", "mjpeg.BlockGroup", withBlockCount(t, group, 1<<30), "hold at most"},
	} {
		err := DecodeFrame(structFrame(c.name, c.payload), &f)
		if err == nil {
			t.Errorf("%s decoded cleanly", c.what)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.what, err, c.want)
		}
	}
}

// withBlockCount rewrites the block count of an encoded group: the u32
// just before its fixed-size block records.
func withBlockCount(t *testing.T, group []byte, n uint32) []byte {
	t.Helper()
	const coeffBlockBytes = 1 + 4 + 4 + 64*4
	var g mjpeg.BlockGroup
	if err := g.UnmarshalBinary(group); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), group...)
	at := len(out) - len(g.Blocks)*coeffBlockBytes - 4
	binary.LittleEndian.PutUint32(out[at:], n)
	return out
}

// TestDecodeGroupFrameAllocs pins the decode side: a group data frame
// costs a small number of allocations however many blocks it carries.
func TestDecodeGroupFrameAllocs(t *testing.T) {
	decodeAllocs := func(g mjpeg.BlockGroup) float64 {
		enc, err := AppendFrame(nil, &Frame{Type: TypeData, Edge: 1, From: "Fetch", Payload: g})
		if err != nil {
			t.Fatal(err)
		}
		var f Frame
		return testing.AllocsPerRun(100, func() {
			if err := DecodeFrame(enc[4:], &f); err != nil {
				t.Fatal(err)
			}
		})
	}
	few := realGroups(t, mjpeg.EncodeOptions{Quality: 75}, 60)[0]
	many := realGroups(t, mjpeg.EncodeOptions{Quality: 75}, 1)[0]
	if len(many.Blocks) < 10*len(few.Blocks) {
		t.Fatalf("groups of %d and %d blocks are too alike to compare", len(few.Blocks), len(many.Blocks))
	}
	a, b := decodeAllocs(few), decodeAllocs(many)
	if a != b {
		t.Errorf("decode allocs depend on block count: %.0f for %d blocks, %.0f for %d",
			a, len(few.Blocks), b, len(many.Blocks))
	}
	if b > 8 {
		t.Errorf("%.0f allocs per group decode, want at most 8", b)
	}
}

// TestRelayForwardsDataFramesVerbatim drives the coordinator's relay path
// over in-memory streams: every data frame read with ReadRelay and written
// again arrives byte-identical and decodes to its source, and other frame
// types still decode in full on the relay side.
func TestRelayForwardsDataFramesVerbatim(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var frames []Frame
	for i := 0; i < 40; i++ {
		frames = append(frames, Frame{Type: TypeData, Edge: uint32(i), Bytes: 99, From: "p", Payload: randPayload(rng)})
	}
	for _, g := range realGroups(t, mjpeg.EncodeOptions{Quality: 70}, 3) {
		frames = append(frames, Frame{Type: TypeData, Edge: 7, From: "Fetch", Payload: g})
	}
	frames = append(frames,
		Frame{Type: TypeWindows, Shard: 1, Windows: []monitor.WindowStats{randWindow(rng)}},
		Frame{Type: TypeEdgeClose, Edge: 4})

	in, out := &bufConn{}, &bufConn{}
	src, relay, dst := NewConn(in), NewConn(in), NewConn(out)
	for i := range frames {
		if err := src.WriteFrame(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	sent := append([]byte(nil), in.Bytes()...)
	for i, want := range frames {
		var f Frame
		if err := relay.ReadRelay(&f); err != nil {
			t.Fatalf("relay read %d: %v", i, err)
		}
		if want.Type == TypeData {
			if f.Raw == nil || f.Payload != nil || f.Edge != want.Edge {
				t.Fatalf("relay frame %d: edge %d raw %d bytes payload %T", i, f.Edge, len(f.Raw), f.Payload)
			}
		} else if !reflect.DeepEqual(f, want) {
			t.Fatalf("relay frame %d of type %d not decoded in full", i, want.Type)
		}
		if err := dst.WriteFrame(&f); err != nil {
			t.Fatal(err)
		}
	}
	if relay.FramesIn() != uint64(len(frames)) || dst.FramesOut() != uint64(len(frames)) {
		t.Errorf("relay counted %d in, %d out; want %d", relay.FramesIn(), dst.FramesOut(), len(frames))
	}
	if !bytes.Equal(out.Bytes(), sent) {
		t.Fatal("relayed stream is not byte-identical to the sent one")
	}
	recv := NewConn(out)
	for i, want := range frames {
		var f Frame
		if err := recv.ReadFrame(&f); err != nil {
			t.Fatalf("receiver read %d: %v", i, err)
		}
		if want.Type == TypeData {
			if _, isGroup := want.Payload.(mjpeg.BlockGroup); isGroup {
				continue // headers are compared field by field elsewhere
			}
		}
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("receiver frame %d:\n got %+v\nwant %+v", i, f, want)
		}
	}

	for _, raw := range [][]byte{{TypeData, 1, 2}, {TypeBye}, {}} {
		if _, err := AppendFrame(nil, &Frame{Raw: raw}); err == nil {
			t.Errorf("raw body %v that is not a data frame was written", raw)
		}
	}
	short := &bufConn{}
	short.Write(append(binary.LittleEndian.AppendUint32(nil, 3), TypeData, 0, 0))
	var f Frame
	if err := NewConn(short).ReadRelay(&f); err == nil {
		t.Error("relay accepted a data frame too short to hold its edge")
	}
}

// TestRelayLeavesPayloadChecksToReceiver: a data frame whose payload is
// corrupt passes the relay untouched and is rejected by the receiving
// decode.
func TestRelayLeavesPayloadChecksToReceiver(t *testing.T) {
	enc, err := AppendFrame(nil, &Frame{Type: TypeData, Edge: 3, From: "Fetch",
		Payload: realGroups(t, mjpeg.EncodeOptions{Quality: 70}, 2)[1]})
	if err != nil {
		t.Fatal(err)
	}
	// Point the last block at a component the header does not have.
	corrupt := append([]byte(nil), enc...)
	corrupt[len(corrupt)-(1+4+4+64*4)] = 9
	in, out := &bufConn{}, &bufConn{}
	in.Write(corrupt)
	var f Frame
	if err := NewConn(in).ReadRelay(&f); err != nil {
		t.Fatalf("relay rejected a frame whose payload it should not read: %v", err)
	}
	if err := NewConn(out).WriteFrame(&f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), corrupt) {
		t.Fatal("relay altered the corrupt frame")
	}
	if err := NewConn(out).ReadFrame(&f); err == nil {
		t.Fatal("receiver accepted a corrupt group")
	} else if !strings.Contains(err.Error(), "component") {
		t.Errorf("receiver error does not name the bad field: %v", err)
	}
}

// FuzzDecodeFrame: no body makes the decoder panic, every block group it
// accepts goes through the IDCT stage, and every pixel group through the
// Reorder stage, without panicking.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	seeds := []Frame{
		{Type: TypeHello, Shard: 1},
		{Type: TypeEdgeClose, Edge: 2},
		{Type: TypeWindows, Shard: 1, Windows: []monitor.WindowStats{randWindow(rng)}},
		{Type: TypeReports, Shard: 0, Units: 3, Checksum: 9, Reports: randReports(rng)},
		{Type: TypeShardDone, Shard: 1},
		{Type: TypeTerminate},
		{Type: TypeCompKill, Name: "S1W1"},
		{Type: TypeBye},
		{Type: TypeError, Name: "boom"},
	}
	for _, p := range []any{nil, true, -3, int64(4), uint64(5), 6.5, "seven", []byte{8}, testUnit{ID: 9, Tag: "t", Vals: []int64{1}}} {
		seeds = append(seeds, Frame{Type: TypeData, Edge: 1, Bytes: 8, From: "p", Payload: p})
	}
	g := realGroups(f, mjpeg.EncodeOptions{Quality: 60, Subsample420: true}, 12)[5]
	g.Blocks = g.Blocks[:2]
	seeds = append(seeds,
		Frame{Type: TypeData, Edge: 0, From: "Fetch", Payload: g},
		Frame{Type: TypeData, Edge: 1, From: "IDCT_1", Payload: mjpeg.TransformGroup(&g)})
	for i := range seeds {
		enc, err := AppendFrame(nil, &seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fr Frame
		if DecodeFrame(body, &fr) != nil {
			return
		}
		switch p := fr.Payload.(type) {
		case mjpeg.BlockGroup:
			mjpeg.TransformGroup(&p)
		case mjpeg.PixelGroup:
			_, _ = mjpeg.NewFrameAssembler().Add(&p)
		}
	})
}
