package media

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// SGIF is the repository's GIF stand-in: a palette-indexed,
// run-length-encoded raster format. Like GIF it is lossless given the
// palette, and distillation reduces size by shrinking dimensions and
// palette depth.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "SGIF" | width | height | paletteSize |
//	palette bytes (paletteSize gray values) |
//	runs: (runLength varint, paletteIndex byte)* covering W*H pixels

var sgifMagic = []byte("SGIF")

// ErrCorrupt reports undecodable image data. Distillers treat it the
// way TranSend treated pathological inputs: the worker errors out and
// the front end falls back to the original bytes.
var ErrCorrupt = errors.New("media: corrupt image data")

// EncodeSGIF encodes an image with the given palette size (2..256
// gray levels). Fewer levels means longer runs and a smaller file.
func EncodeSGIF(im *Image, colors int) []byte {
	colors = min(max(colors, 2), 256)
	// Never regrown: a run costs two bytes a pixel at worst (length 1),
	// and the header is the magic, three varints and the palette.
	buf := make([]byte, 0, 2*len(im.Pix)+4+3*binary.MaxVarintLen64+colors)
	buf = append(buf, sgifMagic...)
	buf = binary.AppendUvarint(buf, uint64(im.W))
	buf = binary.AppendUvarint(buf, uint64(im.H))
	buf = binary.AppendUvarint(buf, uint64(colors))
	for i := 0; i < colors; i++ {
		buf = append(buf, byte(i*255/(colors-1)))
	}
	var quant [256]byte // gray level -> palette index
	for v := range quant {
		quant[v] = byte((v*(colors-1) + 127) / 255)
	}
	for i := 0; i < len(im.Pix); {
		idx := quant[im.Pix[i]]
		run := 1
		for _, p := range im.Pix[i+1:] {
			if quant[p] != idx {
				break
			}
			run++
		}
		buf = binary.AppendUvarint(buf, uint64(run))
		buf = append(buf, idx)
		i += run
	}
	return buf
}

// DecodeSGIF decodes SGIF data. It never panics on corrupt input.
func DecodeSGIF(data []byte) (*Image, error) {
	r := reader{data: data}
	if !r.expect(sgifMagic) {
		return nil, fmt.Errorf("%w: bad SGIF magic", ErrCorrupt)
	}
	w, h, colors := r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil || colors < 2 || colors > 256 || !validDims(w, h) {
		return nil, fmt.Errorf("%w: bad SGIF header", ErrCorrupt)
	}
	palette := r.bytes(int(colors))
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated SGIF palette", ErrCorrupt)
	}
	im := NewImage(int(w), int(h))
	// The run loop reads the stream directly: a run is two bytes far more
	// often than not, and the cursor's per-call checks cost more than that.
	rest := data[r.pos:]
	for pos := 0; pos < len(im.Pix); {
		run, n := uint64(0), 0
		if len(rest) > 0 && rest[0] < 0x80 { // the one-byte length, without the call
			run, n = uint64(rest[0]), 1
		} else {
			run, n = binary.Uvarint(rest)
		}
		if n <= 0 || n >= len(rest) || run == 0 || int(rest[n]) >= len(palette) || run > uint64(len(im.Pix)-pos) {
			return nil, fmt.Errorf("%w: bad SGIF run at pixel %d", ErrCorrupt, pos)
		}
		seg, v := im.Pix[pos:pos+int(run)], palette[rest[n]]
		for j := range seg {
			seg[j] = v
		}
		pos += len(seg)
		rest = rest[n+1:]
	}
	return im, nil
}

// reader is a bounds-checked byte cursor shared by the codecs.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) expect(magic []byte) bool {
	if !bytes.HasPrefix(r.data[r.pos:], magic) {
		r.err = ErrCorrupt
		return false
	}
	r.pos += len(magic)
	return true
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.err = ErrCorrupt
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = ErrCorrupt
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}
