package mjpeg

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// groupFrames are encoded frames covering every header shape the stages
// see: 4:4:4 and 4:2:0 colour, grayscale, restart intervals and sizes that
// are not multiples of the MCU.
func groupFrames(t *testing.T) map[string][]byte {
	t.Helper()
	gray := NewGray(37, 21)
	for i := range gray.Pix {
		gray.Pix[i] = byte(i * 7)
	}
	out := map[string][]byte{}
	for name, in := range map[string]struct {
		img  *Image
		opts EncodeOptions
	}{
		"444":         {SynthFrame(40, 24, 3), EncodeOptions{Quality: 85}},
		"420-restart": {SynthFrame(50, 34, 1), EncodeOptions{Quality: 60, Subsample420: true, RestartInterval: 3}},
		"gray":        {gray, EncodeOptions{Quality: 90}},
	} {
		data, err := Encode(in.img, in.opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

func splitFrame(t *testing.T, data []byte, groups int) (*FrameHeader, []BlockGroup) {
	t.Helper()
	h, err := ParseFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := h.DecodeBlocks()
	if err != nil {
		t.Fatal(err)
	}
	gs, err := SplitBlocks(4, h, blocks, groups)
	if err != nil {
		t.Fatal(err)
	}
	return h, gs
}

// stageState is the part of a header the IDCT and Reorder stages read: the
// header minus the entropy-decoding state only Fetch uses.
func stageState(h *FrameHeader) FrameHeader {
	s := *h
	s.dcDec, s.acDec, s.scan = [4]*huffDecoder{}, [4]*huffDecoder{}, nil
	return s
}

// TestGroupBinaryRoundTrip: both group kinds survive their binary encoding
// with every header field the IDCT and Reorder stages use, the decoded
// block groups transform to the same pixels, and the decoded pixel groups
// reassemble into the reference decoder's image.
func TestGroupBinaryRoundTrip(t *testing.T) {
	for name, data := range groupFrames(t) {
		h, groups := splitFrame(t, data, 3)
		want, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		asm := NewFrameAssembler()
		var img *Image
		for _, g := range groups {
			enc, err := g.AppendBinary(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got BlockGroup
			if err := got.UnmarshalBinary(enc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(stageState(got.Header), stageState(h)) {
				t.Fatalf("%s: header round trip\n got %+v\nwant %+v", name, stageState(got.Header), stageState(h))
			}
			gotH := got.Header
			got.Header, g.Header = nil, nil
			if !reflect.DeepEqual(got, g) {
				t.Fatalf("%s: block group round trip differs", name)
			}
			got.Header, g.Header = gotH, h

			pix := TransformGroup(&got)
			if ref := TransformGroup(&g); !reflect.DeepEqual(pix.Blocks, ref.Blocks) {
				t.Fatalf("%s: decoded group transforms differently", name)
			}
			enc, err = pix.AppendBinary(enc[:0])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var back PixelGroup
			if err := back.UnmarshalBinary(enc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(stageState(back.Header), stageState(h)) ||
				!reflect.DeepEqual(back.Blocks, pix.Blocks) ||
				back.FrameIndex != pix.FrameIndex || back.GroupIndex != pix.GroupIndex || back.NumGroups != pix.NumGroups {
				t.Fatalf("%s: pixel group round trip differs", name)
			}
			if img, err = asm.Add(&back); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if img == nil {
			t.Fatalf("%s: decoded groups did not complete the frame", name)
		}
		if !reflect.DeepEqual(img, want) {
			t.Fatalf("%s: frame reassembled from decoded groups differs from the reference decode", name)
		}
	}
}

// TestGroupBinaryRejectsMalformed: truncations, trailing bytes, block
// counts the body cannot hold and every out-of-range field TransformBlock
// would index with are errors, and a failed decode leaves the target as it
// was.
func TestGroupBinaryRejectsMalformed(t *testing.T) {
	_, groups := splitFrame(t, groupFrames(t)["420-restart"], 2)
	valid, err := groups[0].AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := BlockGroup{FrameIndex: -7}
	check := func(what string, data []byte, wantErr string) {
		t.Helper()
		g := sentinel
		err := g.UnmarshalBinary(data)
		if err == nil {
			t.Fatalf("%s decoded cleanly", what)
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %q does not mention %q", what, err, wantErr)
		}
		if !reflect.DeepEqual(g, sentinel) {
			t.Errorf("%s: failed decode modified the group", what)
		}
	}
	for cut := 0; cut < len(valid); cut++ {
		g := sentinel
		if g.UnmarshalBinary(valid[:cut]) == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(valid))
		}
	}
	check("trailing byte", append(append([]byte(nil), valid...), 0), "trailing")

	mutate := func(off int, v ...byte) []byte {
		b := append([]byte(nil), valid...)
		copy(b[off:], v)
		return b
	}
	const head = groupIndexBytes
	ncomp := int(valid[head+6])
	countAt := head + headerBytes + ncomp*compBytes + quantBytes
	over := mutate(countAt)
	binary.LittleEndian.PutUint32(over[countAt:], 1<<31)
	check("over-count", over, "hold at most")
	check("zero width", mutate(head, 0, 0), "zero image dimension")
	check("no components", mutate(head+6, 0), "components")
	check("four components", mutate(head+6, 4), "components")
	check("sampling factor 0", mutate(head+headerBytes+1, 0), "sampling factor")
	check("sampling factor 3", mutate(head+headerBytes+2, 3), "sampling factor")
	check("quant selector", mutate(head+headerBytes+3, 4), "selectors")
	check("DC selector", mutate(head+headerBytes+4, 4), "selectors")
	check("AC selector", mutate(head+headerBytes+5, 9), "selectors")
	check("block component", mutate(countAt+4, byte(ncomp)), "component")

	if _, err := (BlockGroup{}).AppendBinary(nil); err == nil {
		t.Error("a group without a header encoded cleanly")
	}
	bad := groups[0]
	bad.Blocks = append([]CoeffBlock{{Comp: 3}}, bad.Blocks...)
	if _, err := bad.AppendBinary(nil); err == nil {
		t.Error("a block for a component the header lacks encoded cleanly")
	}
}
