package media

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// SJPG is the repository's JPEG stand-in: a lossy 8×8 block-DCT codec
// with a quality-scaled quantisation table (the same scheme as
// baseline JPEG luminance coding, minus the Huffman stage). Lower
// quality discards more high-frequency coefficients, so files shrink
// and blocks blur — real transform coding, not a size table.
//
// Layout:
//
//	magic "SJPG" | width | height | quality |
//	per 8×8 block: nCoef byte (0..64) then nCoef signed varints
//	(zigzag-ordered quantised coefficients, trailing zeros dropped)
//
// The decoder reconstructs at the size asked for, as jpeg-6a does with
// scale_denom: the inverse DCT followed by a d-wide box average is one
// linear map, so its basis (cosines averaged d at a time — the
// "box-equivalent" basis) takes a block straight to its (8/d)² tile and
// the full-size raster never exists. The tile is Downscale of the full
// decode up to rounding: that path truncates each pixel and then their
// mean, the tile truncates once, half a level lower to stand in for the
// first. At denominator 1 nothing is approximated: the kernel adds the
// dense transform's terms in the dense transform's order, leaving out
// only rows the stream says are zero, so its pixels are bit-stable.

var sjpgMagic = []byte("SJPG")

// baseQuant is the standard JPEG luminance quantisation table.
var baseQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// zigzag maps scan position to block index.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// cosTable[u][x] = cos((2x+1)uπ/16), precomputed for the DCT.
var cosTable [8][8]float64

// boxBasis[k][X][u] is the inverse transform's basis for a tile reduced
// by 1<<k: the mean of cosTable[u] over the 1<<k samples output column X
// replaces. k = 0 is cosTable transposed, so the inner sums run over
// adjacent memory at every size.
var boxBasis [4][8][8]float64

// dctNorm[u] is the orthonormal DCT's c(u): 1/(2√2) for u = 0, else ½.
var dctNorm = [8]float64{1 / (2 * math.Sqrt2), 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}

// zzRows[n] counts the block rows the first n zigzag positions reach:
// the rows an inverse transform of a block that carries n coefficients
// has to read. Everything beyond is zero.
var zzRows [65]int

func init() {
	for u := 0; u < 8; u++ {
		for x := 0; x < 8; x++ {
			cosTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	for k := range boxBasis {
		d := 1 << k
		for X := 0; X < 8/d; X++ {
			for u := 0; u < 8; u++ {
				sum := 0.0
				for _, c := range cosTable[u][X*d : X*d+d] {
					sum += c
				}
				boxBasis[k][X][u] = sum / float64(d)
			}
		}
	}
	for n, zz := range zigzag {
		zzRows[n+1] = max(zzRows[n], zz/8+1)
	}
}

// quantTable scales the base table for a quality in 1..100, following
// the IJG convention (quality 50 = base table).
func quantTable(quality int) [64]int {
	quality = min(max(quality, 1), 100)
	scale := 200 - 2*quality
	if quality < 50 {
		scale = 5000 / quality
	}
	var q [64]int
	for i, b := range baseQuant {
		q[i] = min(max((b*scale+50)/100, 1), 255)
	}
	return q
}

// fdct computes the 2D DCT-II of one 8×8 block (level-shifted by 128).
func fdct(block *[64]float64) {
	var tmp [64]float64 // transposed: tmp[u*8+y], so both passes read rows
	for y := 0; y < 8; y++ {
		row := (*[8]float64)(block[y*8:])
		for u := range cosTable {
			tmp[u*8+y] = dot8(row, &cosTable[u]) * dctNorm[u]
		}
	}
	for u := 0; u < 8; u++ {
		col := (*[8]float64)(tmp[u*8:])
		for v := range cosTable {
			block[v*8+u] = dot8(col, &cosTable[v]) * dctNorm[v]
		}
	}
}

// dot8 is Σ a[i]·b[i] added in index order from zero, as a loop would.
func dot8(a, b *[8]float64) float64 {
	return 0 + a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] + a[4]*b[4] + a[5]*b[5] + a[6]*b[6] + a[7]*b[7]
}

// EncodeSJPG encodes an image at the given quality (1..100).
func EncodeSJPG(im *Image, quality int) []byte {
	quality = min(max(quality, 1), 100)
	q := zigzagQuant(quality)
	buf := make([]byte, 0, len(im.Pix)/3+64)
	buf = append(buf, sjpgMagic...)
	buf = binary.AppendUvarint(buf, uint64(im.W))
	buf = binary.AppendUvarint(buf, uint64(im.H))
	buf = binary.AppendUvarint(buf, uint64(quality))

	var block [64]float64
	var coefs [64]int64
	for by := 0; by < im.H; by += 8 {
		for bx := 0; bx < im.W; bx += 8 {
			// Gather the block; past an edge the edge pixel repeats.
			for y := 0; y < 8; y++ {
				row := im.Pix[min(by+y, im.H-1)*im.W:][:im.W]
				if bx+8 <= im.W {
					for x, p := range row[bx : bx+8] {
						block[y*8+x] = float64(p) - 128
					}
					continue
				}
				for x := 0; x < 8; x++ {
					block[y*8+x] = float64(row[min(bx+x, im.W-1)]) - 128
				}
			}
			fdct(&block)
			n := 0
			for i, zz := range zigzag {
				coefs[i] = int64(math.Round(block[zz] / q[i]))
				if coefs[i] != 0 {
					n = i + 1
				}
			}
			buf = append(buf, byte(n))
			for _, c := range coefs[:n] {
				buf = binary.AppendVarint(buf, c)
			}
		}
	}
	return buf
}

// zigzagQuant is quantTable in scan order, as the floats both codec
// directions multiply and divide by: built once per image.
func zigzagQuant(quality int) (q [64]float64) {
	t := quantTable(quality)
	for i, zz := range zigzag {
		q[i] = float64(t[zz])
	}
	return q
}

// DecodeSJPG decodes SJPG data, reduced by denom (default 1; at most one
// value is read) in each dimension as Downscale would reduce it. Denom
// 2, 4 and 8 reduce inside the inverse transform, into a raster of the
// reduced size; any other decodes at 1 and box-filters. It never panics
// on corrupt input.
func DecodeSJPG(data []byte, denom ...int) (*Image, error) {
	r := reader{data: data}
	if !r.expect(sjpgMagic) {
		return nil, fmt.Errorf("%w: bad SJPG magic", ErrCorrupt)
	}
	uw, uh, quality := r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil || quality < 1 || quality > 100 || !validDims(uw, uh) {
		return nil, fmt.Errorf("%w: bad SJPG header", ErrCorrupt)
	}
	w, h := int(uw), int(uh)
	// Every block costs at least its nCoef byte: a header that claims
	// more blocks than bytes remain is refused before the raster exists.
	if ((w+7)/8)*((h+7)/8) > len(data)-r.pos {
		return nil, fmt.Errorf("%w: truncated SJPG data", ErrCorrupt)
	}
	d := 1
	if len(denom) > 0 && denom[0] > 1 {
		d = denom[0]
	}
	// No tile for this denominator, or an image smaller than one of its
	// sample windows (Downscale clips those): reduce the full decode.
	if d > 1 && (d > 8 || d&(d-1) != 0 || w < d || h < d) {
		im, err := DecodeSJPG(data)
		if err != nil {
			return nil, err
		}
		return im.Downscale(d), nil
	}
	basis := &boxBasis[bits.TrailingZeros(uint(d))]
	q := zigzagQuant(int(quality))
	im := NewImage(w/d, h/d)
	side := 8 / d
	shift := 128.0
	if d > 1 {
		shift = 127.5 // the half level Downscale's first truncation takes
	}
	var coef [64]float64
	for by := 0; by < h; by += 8 {
		for bx := 0; bx < w; bx += 8 {
			n := int(r.byte())
			if r.err != nil || n > 64 {
				return nil, fmt.Errorf("%w: bad SJPG block header at (%d,%d)", ErrCorrupt, bx, by)
			}
			for i, zz := range zigzag[:n] {
				c := r.varint()
				coef[zz] = dctNorm[zz%8] * (float64(c) * q[i])
			}
			if r.err != nil {
				return nil, fmt.Errorf("%w: truncated SJPG block at (%d,%d)", ErrCorrupt, bx, by)
			}
			// The tile's place in the reduced raster; a partial block
			// at the right or bottom edge may lie partly or wholly outside.
			ox, oy := bx/d, by/d
			nx, ny := min(side, im.W-ox), min(side, im.H-oy)
			if nx > 0 && ny > 0 {
				inverseTile(&coef, zzRows[n], basis, shift, im.Pix[oy*im.W+ox:], im.W, nx, ny)
			}
			for _, zz := range zigzag[:n] {
				coef[zz] = 0
			}
		}
	}
	return im, nil
}

// inverseTile reconstructs one block as an nx×ny tile of pix (rows
// stride apart). coef holds the dequantised coefficients, each already
// multiplied by its column's dctNorm, and only its first rows rows are
// read; basis picks the tile's size. Every sum runs in the dense 8×8
// transform's order over the same terms or exact zeros, so with
// boxBasis[0] and shift 128 the pixels are that transform's, bit for bit.
func inverseTile(coef *[64]float64, rows int, basis *[8][8]float64, shift float64, pix []byte, stride, nx, ny int) {
	var tmp [64]float64 // transposed: tmp[x*8+v]
	for v := 0; v < rows; v++ {
		cr := (*[8]float64)(coef[v*8:])
		for x := 0; x < nx; x++ {
			tmp[x*8+v] = dctNorm[v] * dot8(cr, &basis[x])
		}
	}
	for y := 0; y < ny; y++ {
		row := pix[y*stride:][:nx]
		for x := range row {
			px := dot8((*[8]float64)(tmp[x*8:]), &basis[y]) + shift
			if px < 0 {
				px = 0
			}
			if px > 255 {
				px = 255
			}
			row[x] = byte(px)
			if rows == 0 {
				row[x] = 128 // an empty block is mid-gray at every size
			}
		}
	}
}
