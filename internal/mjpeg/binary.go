package mjpeg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// BlockGroup and PixelGroup cross process boundaries on the cluster
// platform, where the wire codec carries them in this binary form (mjpegapp
// registers both with internal/wire). The encoding holds the post-parse
// header state the IDCT and Reorder stages use: frame size, restart
// interval, quantization tables and component specs. Block geometry and the
// MCU grid are re-derived from those on decode (FrameHeader.layout), so a
// decoded header is consistent by construction. The entropy-decoding state
// (Huffman tables, scan data) stays behind on purpose: only Fetch consumes
// it, and Fetch never receives a header from the wire.
//
// Layout, little-endian:
//
//	group:  frame i64 | group i64 | groups i64 | header | count u32 | count × block
//	header: width u16 | height u16 | restart u16 | ncomp u8 |
//	        ncomp × (id, h, v, quant, dcsel, acsel u8) | 4 × 64 × quant u16
//	block:  comp u8 | bx i32 | by i32 | 64 × coefficient i32 (BlockGroup)
//	                                  | 64 × sample u8       (PixelGroup)
//
// The decoder is bounds-checked and validates everything the IDCT and
// Reorder stages index with — component count (1 or 3, as ParseFrame
// accepts), sampling factors, table selectors and each block's component
// index — before it allocates the blocks, so a decoded group never makes
// those stages panic.

const (
	groupIndexBytes = 3 * 8
	headerBytes     = 3*2 + 1
	compBytes       = 6
	quantBytes      = 4 * 64 * 2
	blockPosBytes   = 1 + 4 + 4
	coeffBlockBytes = blockPosBytes + 64*4
	pixelBlockBytes = blockPosBytes + 64
)

var errShortGroup = errors.New("mjpeg: truncated group encoding")

// AppendBinary implements encoding.BinaryAppender.
func (g BlockGroup) AppendBinary(b []byte) ([]byte, error) {
	b, err := appendGroupHead(b, g.FrameIndex, g.GroupIndex, g.NumGroups, g.Header, len(g.Blocks), coeffBlockBytes)
	if err != nil {
		return nil, err
	}
	for i := range g.Blocks {
		blk := &g.Blocks[i]
		if b, err = appendBlockPos(b, g.Header, blk.Comp, blk.BX, blk.BY); err != nil {
			return nil, err
		}
		for _, c := range blk.Coeff {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. On error g is left
// unchanged.
func (g *BlockGroup) UnmarshalBinary(data []byte) error {
	gh, recs, err := decodeGroupHead(data, coeffBlockBytes)
	if err != nil {
		return err
	}
	blocks := make([]CoeffBlock, len(recs)/coeffBlockBytes)
	for i := range blocks {
		rec := recs[i*coeffBlockBytes:]
		b := &blocks[i]
		if b.Comp, b.BX, b.BY, err = decodeBlockPos(rec, gh.header); err != nil {
			return err
		}
		coeff := (*[64 * 4]byte)(rec[blockPosBytes:coeffBlockBytes])
		for j := range b.Coeff {
			b.Coeff[j] = int32(binary.LittleEndian.Uint32(coeff[4*j:]))
		}
	}
	*g = BlockGroup{
		FrameIndex: gh.frame, GroupIndex: gh.group, NumGroups: gh.groups,
		Header: gh.header, Blocks: blocks,
	}
	return nil
}

// AppendBinary implements encoding.BinaryAppender.
func (g PixelGroup) AppendBinary(b []byte) ([]byte, error) {
	b, err := appendGroupHead(b, g.FrameIndex, g.GroupIndex, g.NumGroups, g.Header, len(g.Blocks), pixelBlockBytes)
	if err != nil {
		return nil, err
	}
	for i := range g.Blocks {
		blk := &g.Blocks[i]
		if b, err = appendBlockPos(b, g.Header, blk.Comp, blk.BX, blk.BY); err != nil {
			return nil, err
		}
		b = append(b, blk.Pix[:]...)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. On error g is left
// unchanged.
func (g *PixelGroup) UnmarshalBinary(data []byte) error {
	gh, recs, err := decodeGroupHead(data, pixelBlockBytes)
	if err != nil {
		return err
	}
	blocks := make([]PixelBlock, len(recs)/pixelBlockBytes)
	for i := range blocks {
		rec := recs[i*pixelBlockBytes:]
		b := &blocks[i]
		if b.Comp, b.BX, b.BY, err = decodeBlockPos(rec, gh.header); err != nil {
			return err
		}
		copy(b.Pix[:], rec[blockPosBytes:pixelBlockBytes])
	}
	*g = PixelGroup{
		FrameIndex: gh.frame, GroupIndex: gh.group, NumGroups: gh.groups,
		Header: gh.header, Blocks: blocks,
	}
	return nil
}

// appendGroupHead writes the fields both group kinds share, growing b once
// to hold the nblocks records of blockBytes each that follow.
func appendGroupHead(b []byte, frame, group, groups int, h *FrameHeader, nblocks, blockBytes int) ([]byte, error) {
	if h == nil {
		return nil, errors.New("mjpeg: group has no frame header")
	}
	if n := len(h.comps); n != 1 && n != 3 {
		return nil, fmt.Errorf("mjpeg: header with %d components cannot be encoded", len(h.comps))
	}
	for _, v := range []int{h.Width, h.Height, h.RestartInterval} {
		if v < 0 || v > 0xFFFF {
			return nil, fmt.Errorf("mjpeg: header field %d outside 16 bits", v)
		}
	}
	b = slices.Grow(b, groupIndexBytes+headerBytes+compBytes*len(h.comps)+quantBytes+4+nblocks*blockBytes)
	b = binary.LittleEndian.AppendUint64(b, uint64(frame))
	b = binary.LittleEndian.AppendUint64(b, uint64(group))
	b = binary.LittleEndian.AppendUint64(b, uint64(groups))
	b = binary.LittleEndian.AppendUint16(b, uint16(h.Width))
	b = binary.LittleEndian.AppendUint16(b, uint16(h.Height))
	b = binary.LittleEndian.AppendUint16(b, uint16(h.RestartInterval))
	b = append(b, byte(len(h.comps)))
	for _, c := range h.comps {
		b = append(b, c.ID, byte(c.H), byte(c.V), c.Quant, c.DCSel, c.ACSel)
	}
	for t := range h.quant {
		for _, q := range h.quant[t] {
			b = binary.LittleEndian.AppendUint16(b, q)
		}
	}
	return binary.LittleEndian.AppendUint32(b, uint32(nblocks)), nil
}

func appendBlockPos(b []byte, h *FrameHeader, comp, bx, by int) ([]byte, error) {
	if comp < 0 || comp >= len(h.comps) {
		return nil, fmt.Errorf("mjpeg: block for component %d of %d", comp, len(h.comps))
	}
	b = append(b, byte(comp))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(bx)))
	return binary.LittleEndian.AppendUint32(b, uint32(int32(by))), nil
}

type groupHead struct {
	frame, group, groups int
	header               *FrameHeader
}

// decodeGroupHead decodes and validates the shared fields and returns the
// block records that follow, whose length is checked to be exactly the
// claimed count of blockBytes records.
func decodeGroupHead(data []byte, blockBytes int) (groupHead, []byte, error) {
	var gh groupHead
	if len(data) < groupIndexBytes+headerBytes {
		return gh, nil, errShortGroup
	}
	gh.frame = int(int64(binary.LittleEndian.Uint64(data)))
	gh.group = int(int64(binary.LittleEndian.Uint64(data[8:])))
	gh.groups = int(int64(binary.LittleEndian.Uint64(data[16:])))
	d := data[groupIndexBytes:]
	h := &FrameHeader{
		Width:           int(binary.LittleEndian.Uint16(d)),
		Height:          int(binary.LittleEndian.Uint16(d[2:])),
		RestartInterval: int(binary.LittleEndian.Uint16(d[4:])),
	}
	if h.Width == 0 || h.Height == 0 {
		return gh, nil, errors.New("mjpeg: group header has a zero image dimension")
	}
	n := int(d[6])
	if n != 1 && n != 3 {
		return gh, nil, fmt.Errorf("mjpeg: group header has %d components (1 or 3)", n)
	}
	fixed := headerBytes + n*compBytes + quantBytes + 4
	if len(d) < fixed {
		return gh, nil, errShortGroup
	}
	h.comps = make([]componentSpec, n)
	for i := range h.comps {
		c := d[headerBytes+i*compBytes:]
		spec := componentSpec{ID: c[0], H: int(c[1]), V: int(c[2]), Quant: c[3], DCSel: c[4], ACSel: c[5]}
		if spec.H < 1 || spec.H > 2 || spec.V < 1 || spec.V > 2 {
			return gh, nil, fmt.Errorf("mjpeg: group header sampling factor %dx%d outside 1..2", spec.H, spec.V)
		}
		if spec.Quant > 3 || spec.DCSel > 3 || spec.ACSel > 3 {
			return gh, nil, fmt.Errorf("mjpeg: group header table selectors %d/%d/%d out of range",
				spec.Quant, spec.DCSel, spec.ACSel)
		}
		h.comps[i] = spec
	}
	q := d[headerBytes+n*compBytes:]
	for t := range h.quant {
		for k := range h.quant[t] {
			h.quant[t][k] = binary.LittleEndian.Uint16(q[2*(64*t+k):])
		}
	}
	count := uint64(binary.LittleEndian.Uint32(d[fixed-4:]))
	recs := d[fixed:]
	if fit := uint64(len(recs) / blockBytes); count > fit {
		return gh, nil, fmt.Errorf("mjpeg: group claims %d blocks, its %d bytes hold at most %d", count, len(recs), fit)
	}
	if extra := len(recs) - int(count)*blockBytes; extra != 0 {
		return gh, nil, fmt.Errorf("mjpeg: %d trailing bytes after %d group blocks", extra, count)
	}
	h.layout()
	gh.header = h
	return gh, recs, nil
}

func decodeBlockPos(rec []byte, h *FrameHeader) (comp, bx, by int, err error) {
	comp = int(rec[0])
	if comp >= len(h.comps) {
		return 0, 0, 0, fmt.Errorf("mjpeg: block for component %d of %d", comp, len(h.comps))
	}
	bx = int(int32(binary.LittleEndian.Uint32(rec[1:])))
	by = int(int32(binary.LittleEndian.Uint32(rec[5:])))
	return comp, bx, by, nil
}
