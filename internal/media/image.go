// Package media provides the content domain TranSend's distillers
// operate on (paper §3.1.6): a synthetic grayscale raster type, two
// image codecs — SGIF (palette + run-length, the GIF stand-in) and
// SJPG (8×8 block DCT with quality-scaled quantisation, the JPEG
// stand-in) — and an HTML generator/munger substrate.
//
// The codecs do real, CPU-bound, size-reducing work: distillation
// decodes, downscales and re-encodes at lower fidelity, so the latency
// and size behaviour the paper measures (Figure 3's 10 KB → 1.5 KB,
// Figure 7's size-linear distillation cost) emerges from actual
// computation rather than a canned table. What a distillation pays for
// is the thumbnail, not the original: SJPG decodes straight to the
// reduced raster (sjpg.go), the filters cost W·H whatever factor or
// radius a profile names, and the munger is one pass into one buffer.
package media

import "math/rand"

// MIME types for the synthetic content universe, used throughout the
// service for dispatch decisions (the paper's GIF/JPEG/HTML trio).
const (
	MIMESGIF  = "image/sgif"
	MIMESJPG  = "image/sjpg"
	MIMEHTML  = "text/html"
	MIMEOther = "application/octet-stream"
)

// Image is an 8-bit grayscale raster.
type Image struct {
	W, H int
	Pix  []byte // row-major, len == W*H
}

// maxPixels bounds the raster a decoder allocates on a header's word
// alone: 4096², far above anything the Figure 5 size mix produces, so a
// dozen bytes of body cannot make a worker reserve hundreds of
// megabytes. Both codecs refuse larger dimensions as corrupt.
const maxPixels = 1 << 24

// validDims reports whether a header's dimensions are ones to allocate.
func validDims(w, h uint64) bool {
	return w > 0 && h > 0 && w <= maxPixels && h <= maxPixels && w*h <= maxPixels
}

// NewImage allocates a zeroed image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic("media: image dimensions must be positive")
	}
	return &Image{W: w, H: h, Pix: make([]byte, w*h)}
}

// Generate synthesizes a natural-looking image: low-frequency value
// noise (bilinear-interpolated coarse grid) plus fine-grain noise.
// Smooth large-scale structure is what makes the codecs' compression
// behave like real photo compression.
func Generate(rng *rand.Rand, w, h int) *Image {
	const cell = 16
	gw, gh := w/cell+2, h/cell+2
	grid := make([]float64, gw*gh)
	for i := range grid {
		grid[i] = rng.Float64() * 255
	}
	im := NewImage(w, h)
	for y := 0; y < h; y++ {
		gy := float64(y) / cell
		y0 := int(gy)
		fy := gy - float64(y0)
		for x := 0; x < w; x++ {
			gx := float64(x) / cell
			x0 := int(gx)
			fx := gx - float64(x0)
			v00 := grid[y0*gw+x0]
			v10 := grid[y0*gw+x0+1]
			v01 := grid[(y0+1)*gw+x0]
			v11 := grid[(y0+1)*gw+x0+1]
			v := v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
			v += (rng.Float64() - 0.5) * 12 // sensor noise
			im.Pix[y*w+x] = byte(min(max(v, 0), 255))
		}
	}
	return im
}

// Downscale returns the image reduced by an integer factor using a box
// filter (the paper's Figure 3 "scaling by a factor of 2 in each
// dimension"). Factor <= 1 returns a copy. The factor comes from a user
// profile, so the cost must not follow it: a window is clipped to the
// image before it is walked, never tested pixel by pixel.
func (im *Image) Downscale(factor int) *Image {
	if factor <= 1 {
		return &Image{W: im.W, H: im.H, Pix: append([]byte(nil), im.Pix...)}
	}
	out := NewImage(max(im.W/factor, 1), max(im.H/factor, 1))
	// Only a dimension smaller than the factor clips a window, and then
	// there is one window along it.
	fw, fh := min(factor, im.W), min(factor, im.H)
	for y := 0; y < out.H; y++ {
		dst := out.Pix[y*out.W:][:out.W]
		if fw == 2 && fh == 2 { // every request's default, spelled out
			r0, r1 := im.Pix[2*y*im.W:][:2*out.W], im.Pix[(2*y+1)*im.W:][:2*out.W]
			for x := range dst {
				dst[x] = byte((int(r0[2*x]) + int(r0[2*x+1]) + int(r1[2*x]) + int(r1[2*x+1])) / 4)
			}
			continue
		}
		for x := range dst {
			sum := 0
			for dy := 0; dy < fh; dy++ {
				for _, p := range im.Pix[(y*factor+dy)*im.W+x*factor:][:fw] {
					sum += int(p)
				}
			}
			dst[x] = byte(sum / (fw * fh))
		}
	}
	return out
}

// maxBlurRadius keeps BoxBlur's sums inside an int64: 255·(2r+1)² at
// this radius is under 2^59, and no image is this wide (maxPixels).
const maxBlurRadius = 1 << 24

// BoxBlur applies a low-pass box filter of the given radius — the
// "low-pass filtering of JPEG images" distillation primitive. A window
// reaching past an edge reads the edge pixel again (At's clamping). The
// radius comes from a user profile, so the cost must not follow it: the
// filter is two passes of running sums, rows then columns, and the
// repeated edge samples are one multiplication.
func (im *Image) BoxBlur(radius int) *Image {
	out := NewImage(im.W, im.H)
	if radius <= 0 {
		copy(out.Pix, im.Pix)
		return out
	}
	r := min(radius, maxBlurRadius)
	// window sums a sequence over [i-r, i+r] from its prefix sums p
	// (p[k] = the first k elements), positions off either end reading
	// the element at that end.
	window := func(p []int64, i int) int64 {
		last := len(p) - 2
		sum := p[min(i+r, last)+1] - p[max(i-r, 0)]
		sum += int64(max(r-i, 0)) * p[1]
		return sum + int64(max(i+r-last, 0))*(p[last+1]-p[last])
	}
	rowSums := make([]int64, len(im.Pix))
	p := make([]int64, max(im.W, im.H)+1)
	for y := 0; y < im.H; y++ {
		for x, v := range im.Pix[y*im.W:][:im.W] {
			p[x+1] = p[x] + int64(v)
		}
		for x := 0; x < im.W; x++ {
			rowSums[y*im.W+x] = window(p[:im.W+1], x)
		}
	}
	n := int64(2*r+1) * int64(2*r+1)
	for x := 0; x < im.W; x++ {
		for y := 0; y < im.H; y++ {
			p[y+1] = p[y] + rowSums[y*im.W+x]
		}
		for y := 0; y < im.H; y++ {
			out.Pix[y*im.W+x] = byte(window(p[:im.H+1], y) / n)
		}
	}
	return out
}
