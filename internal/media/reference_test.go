package media

// The codecs, filters and munger as they stood before the reduced-size
// decoder (PR 30), kept verbatim apart from the ref prefix: the oracle
// the kernel tests compare against. Do not optimise this file.

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// refFDCT computes the 2D DCT-II of one 8×8 block (level-shifted by 128).
func refFDCT(block *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			sum := 0.0
			for x := 0; x < 8; x++ {
				sum += block[y*8+x] * cosTable[u][x]
			}
			c := 0.5
			if u == 0 {
				c = 1 / (2 * math.Sqrt2)
			}
			tmp[y*8+u] = sum * c
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			sum := 0.0
			for y := 0; y < 8; y++ {
				sum += tmp[y*8+u] * cosTable[v][y]
			}
			c := 0.5
			if v == 0 {
				c = 1 / (2 * math.Sqrt2)
			}
			block[v*8+u] = sum * c
		}
	}
}

// refIDCT computes the inverse 2D DCT of one 8×8 block.
func refIDCT(block *[64]float64) {
	var tmp [64]float64
	for v := 0; v < 8; v++ {
		for x := 0; x < 8; x++ {
			sum := 0.0
			for u := 0; u < 8; u++ {
				c := 0.5
				if u == 0 {
					c = 1 / (2 * math.Sqrt2)
				}
				sum += c * block[v*8+u] * cosTable[u][x]
			}
			tmp[v*8+x] = sum
		}
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			sum := 0.0
			for v := 0; v < 8; v++ {
				c := 0.5
				if v == 0 {
					c = 1 / (2 * math.Sqrt2)
				}
				sum += c * tmp[v*8+x] * cosTable[v][y]
			}
			block[y*8+x] = sum
		}
	}
}

// refEncodeSJPG encodes an image at the given quality (1..100).
func refEncodeSJPG(im *Image, quality int) []byte {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	q := quantTable(quality)
	buf := make([]byte, 0, len(im.Pix)/3+64)
	buf = append(buf, sjpgMagic...)
	buf = binary.AppendUvarint(buf, uint64(im.W))
	buf = binary.AppendUvarint(buf, uint64(im.H))
	buf = binary.AppendUvarint(buf, uint64(quality))

	var block [64]float64
	var coefs [64]int64
	for by := 0; by < im.H; by += 8 {
		for bx := 0; bx < im.W; bx += 8 {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					block[y*8+x] = float64(im.At(bx+x, by+y)) - 128
				}
			}
			refFDCT(&block)
			last := -1
			for i := 0; i < 64; i++ {
				c := int64(math.Round(block[zigzag[i]] / float64(q[zigzag[i]])))
				coefs[i] = c
				if c != 0 {
					last = i
				}
			}
			n := last + 1
			buf = append(buf, byte(n))
			for i := 0; i < n; i++ {
				buf = binary.AppendVarint(buf, coefs[i])
			}
		}
	}
	return buf
}

// refDecodeSJPG decodes SJPG data. It never panics on corrupt input.
func refDecodeSJPG(data []byte) (*Image, error) {
	r := reader{data: data}
	if !r.expect(sjpgMagic) {
		return nil, fmt.Errorf("%w: bad SJPG magic", ErrCorrupt)
	}
	w := r.uvarint()
	h := r.uvarint()
	quality := r.uvarint()
	if r.err != nil || w == 0 || h == 0 || quality < 1 || quality > 100 || w*h > 1<<28 {
		return nil, fmt.Errorf("%w: bad SJPG header", ErrCorrupt)
	}
	q := quantTable(int(quality))
	im := NewImage(int(w), int(h))
	var block [64]float64
	for by := 0; by < im.H; by += 8 {
		for bx := 0; bx < im.W; bx += 8 {
			n := int(r.byte())
			if r.err != nil || n > 64 {
				return nil, fmt.Errorf("%w: bad SJPG block header at (%d,%d)", ErrCorrupt, bx, by)
			}
			for i := range block {
				block[i] = 0
			}
			for i := 0; i < n; i++ {
				c := r.varint()
				if r.err != nil {
					return nil, fmt.Errorf("%w: truncated SJPG block at (%d,%d)", ErrCorrupt, bx, by)
				}
				block[zigzag[i]] = float64(c) * float64(q[zigzag[i]])
			}
			refIDCT(&block)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					v := block[y*8+x] + 128
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					im.Set(bx+x, by+y, byte(v))
				}
			}
		}
	}
	return im, nil
}

// refEncodeSGIF encodes an image with the given palette size (2..256
// gray levels). Fewer levels means longer runs and a smaller file.
func refEncodeSGIF(im *Image, colors int) []byte {
	if colors < 2 {
		colors = 2
	}
	if colors > 256 {
		colors = 256
	}
	buf := make([]byte, 0, len(im.Pix)/4+64)
	buf = append(buf, sgifMagic...)
	buf = binary.AppendUvarint(buf, uint64(im.W))
	buf = binary.AppendUvarint(buf, uint64(im.H))
	buf = binary.AppendUvarint(buf, uint64(colors))
	for i := 0; i < colors; i++ {
		buf = append(buf, byte(i*255/(colors-1)))
	}
	quant := func(v byte) byte {
		return byte((int(v)*(colors-1) + 127) / 255)
	}
	i := 0
	for i < len(im.Pix) {
		idx := quant(im.Pix[i])
		run := 1
		for i+run < len(im.Pix) && quant(im.Pix[i+run]) == idx {
			run++
		}
		buf = binary.AppendUvarint(buf, uint64(run))
		buf = append(buf, idx)
		i += run
	}
	return buf
}

// refDecodeSGIF decodes SGIF data. It never panics on corrupt input.
func refDecodeSGIF(data []byte) (*Image, error) {
	r := reader{data: data}
	if !r.expect(sgifMagic) {
		return nil, fmt.Errorf("%w: bad SGIF magic", ErrCorrupt)
	}
	w := r.uvarint()
	h := r.uvarint()
	colors := r.uvarint()
	if r.err != nil || w == 0 || h == 0 || colors < 2 || colors > 256 || w*h > 1<<28 {
		return nil, fmt.Errorf("%w: bad SGIF header", ErrCorrupt)
	}
	palette := r.bytes(int(colors))
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated SGIF palette", ErrCorrupt)
	}
	im := NewImage(int(w), int(h))
	pos := 0
	for pos < len(im.Pix) {
		run := r.uvarint()
		idx := r.byte()
		if r.err != nil || run == 0 || int(idx) >= len(palette) || pos+int(run) > len(im.Pix) {
			return nil, fmt.Errorf("%w: bad SGIF run at pixel %d", ErrCorrupt, pos)
		}
		v := palette[idx]
		for j := 0; j < int(run); j++ {
			im.Pix[pos+j] = v
		}
		pos += int(run)
	}
	return im, nil
}

// Downscale returns the image reduced by an integer factor using a box
// filter (the paper's Figure 3 "scaling by a factor of 2 in each
// dimension"). Factor <= 1 returns a copy.
func refDownscale(im *Image, factor int) *Image {
	if factor <= 1 {
		out := NewImage(im.W, im.H)
		copy(out.Pix, im.Pix)
		return out
	}
	w := im.W / factor
	h := im.H / factor
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum, n := 0, 0
			for dy := 0; dy < factor; dy++ {
				for dx := 0; dx < factor; dx++ {
					sx, sy := x*factor+dx, y*factor+dy
					if sx < im.W && sy < im.H {
						sum += int(im.Pix[sy*im.W+sx])
						n++
					}
				}
			}
			out.Pix[y*w+x] = byte(sum / n)
		}
	}
	return out
}

// BoxBlur applies a low-pass box filter of the given radius — the
// "low-pass filtering of JPEG images" distillation primitive.
func refBoxBlur(im *Image, radius int) *Image {
	if radius <= 0 {
		out := NewImage(im.W, im.H)
		copy(out.Pix, im.Pix)
		return out
	}
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			sum, n := 0, 0
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					sum += int(im.At(x+dx, y+dy))
					n++
				}
			}
			out.Pix[y*im.W+x] = byte(sum / n)
		}
	}
	return out
}

// refImageRef is one inline image reference found in a page.
type refImageRef struct {
	Src        string
	TagStart   int // byte offset of '<'
	TagEnd     int // byte offset one past '>'
	SrcStart   int // byte offset of the src value
	SrcEnd     int // byte offset one past the src value
	AttrsExtra string
}

// refFindImageRefs scans HTML for <img ...> tags and returns their src
// attributes with offsets. The scanner is deliberately forgiving —
// TranSend's HTML distiller had to survive pathological pages.
func refFindImageRefs(html []byte) []refImageRef {
	var refs []refImageRef
	s := string(html)
	lower := strings.ToLower(s)
	pos := 0
	for {
		i := strings.Index(lower[pos:], "<img")
		if i < 0 {
			return refs
		}
		start := pos + i
		end := strings.IndexByte(s[start:], '>')
		if end < 0 {
			return refs
		}
		end = start + end + 1
		tag := s[start:end]
		tagLower := lower[start:end]
		if j := strings.Index(tagLower, "src="); j >= 0 {
			valStart := j + len("src=")
			var valEnd int
			if valStart < len(tag) && (tag[valStart] == '"' || tag[valStart] == '\'') {
				quote := tag[valStart]
				valStart++
				rel := strings.IndexByte(tag[valStart:], quote)
				if rel < 0 {
					pos = end
					continue
				}
				valEnd = valStart + rel
			} else {
				rel := strings.IndexAny(tag[valStart:], " \t\n>")
				if rel < 0 {
					rel = len(tag) - valStart
				}
				valEnd = valStart + rel
			}
			refs = append(refs, refImageRef{
				Src:      tag[valStart:valEnd],
				TagStart: start,
				TagEnd:   end,
				SrcStart: start + valStart,
				SrcEnd:   start + valEnd,
			})
		}
		pos = end
	}
}

// refRewriteHTML applies the munge options and returns the new page.
func refRewriteHTML(html []byte, opt MungeOptions) []byte {
	refs := refFindImageRefs(html)
	var b strings.Builder
	b.Grow(len(html) + 512)
	s := string(html)
	last := 0
	for _, ref := range refs {
		newSrc := ref.Src
		if opt.RewriteSrc != nil {
			newSrc = opt.RewriteSrc(ref.Src)
		}
		b.WriteString(s[last:ref.SrcStart])
		b.WriteString(newSrc)
		b.WriteString(s[ref.SrcEnd:ref.TagEnd])
		if opt.OriginalLink {
			fmt.Fprintf(&b, `<a href="%s">[original]</a>`, ref.Src)
		}
		last = ref.TagEnd
	}
	b.WriteString(s[last:])
	out := b.String()
	if opt.Toolbar != "" {
		lower := strings.ToLower(out)
		if i := strings.Index(lower, "<body"); i >= 0 {
			if j := strings.IndexByte(out[i:], '>'); j >= 0 {
				at := i + j + 1
				out = out[:at] + opt.Toolbar + out[at:]
			}
		} else {
			out = opt.Toolbar + out
		}
	}
	return []byte(out)
}

// At and Set are the accessors the reference kernels were written on;
// nothing outside the tests calls them any more.
//
// At returns the pixel at (x, y), clamping coordinates to the image
// bounds (convenient for block codecs at the edges).
func (im *Image) At(x, y int) byte {
	if x < 0 {
		x = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v byte) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// MeanAbsDiff returns the mean absolute pixel difference between two
// images of identical dimensions, a simple quality metric for codec
// round-trip tests. It panics on dimension mismatch.
func MeanAbsDiff(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("media: dimension mismatch")
	}
	sum := 0.0
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(a.Pix))
}
