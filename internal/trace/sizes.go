// Package trace reproduces TranSend's workload substrate (paper §4.1):
// the content-size distributions of Figure 5, the bursty arrival
// process of Figure 6, and the synthetic object ids, URLs and
// attributes requests name. The load generators built on it are
// bench/'s and the chaos harness's (internal/chaos/loadgen.go).
//
// The real 45-day Berkeley dialup trace is unavailable, so the
// generator is calibrated to every marginal the paper publishes: MIME
// mix (50% GIF, 22% HTML, 18% JPEG), mean sizes (GIF 3428 B, HTML
// 5131 B, JPEG 12070 B), the bimodal GIF distribution with its 1 KB
// split between icons and photos, the JPEG fall-off below 1 KB, and
// the multi-scale burstiness of the arrival process.
package trace

import (
	"math/rand"

	"repro/internal/media"
	"repro/internal/sim"
)

// MIME mix observed in the paper's traces (§4.1). The remainder is
// "other" content that no distiller handles and is passed through.
const (
	FracGIF   = 0.50
	FracHTML  = 0.22
	FracJPEG  = 0.18
	FracOther = 0.10
)

// Mean content sizes from Figure 5's caption.
const (
	MeanHTML = 5131
	MeanGIF  = 3428
	MeanJPEG = 12070
)

// SizeModel draws content lengths for one MIME type.
type SizeModel struct {
	MIME string
	draw func(rng *rand.Rand) int
}

// Sample draws one content length in bytes.
func (m *SizeModel) Sample(rng *rand.Rand) int { return m.draw(rng) }

func clampSize(v float64) int {
	return int(sim.Clamp(v, 64, 2<<20))
}

// GIFSizes models Figure 5's bimodal GIF distribution: a low plateau
// of sub-1KB icons/bullets and a high plateau of photos/cartoons. The
// mixture is calibrated so the overall mean is ~3428 B and the 1 KB
// distillation threshold separates the two classes.
func GIFSizes() *SizeModel {
	const (
		iconWeight = 0.5
		iconSigma  = 0.7
		photoSigma = 1.0
	)
	iconMu := sim.LogNormalMean(380, iconSigma)
	photoMu := sim.LogNormalMean((MeanGIF-iconWeight*380)/(1-iconWeight), photoSigma)
	return &SizeModel{MIME: media.MIMESGIF, draw: func(rng *rand.Rand) int {
		if rng.Float64() < iconWeight {
			return clampSize(sim.LogNormal(rng, iconMu, iconSigma))
		}
		return clampSize(sim.LogNormal(rng, photoMu, photoSigma))
	}}
}

// HTMLSizes models the HTML distribution (mean 5131 B, long tail).
func HTMLSizes() *SizeModel {
	const sigma = 1.2
	mu := sim.LogNormalMean(MeanHTML, sigma)
	return &SizeModel{MIME: media.MIMEHTML, draw: func(rng *rand.Rand) int {
		return clampSize(sim.LogNormal(rng, mu, sigma))
	}}
}

// JPEGSizes models the JPEG distribution (mean 12070 B), which falls
// off rapidly below 1 KB in the paper's data.
func JPEGSizes() *SizeModel {
	const sigma = 1.1
	mu := sim.LogNormalMean(MeanJPEG, sigma)
	return &SizeModel{MIME: media.MIMESJPG, draw: func(rng *rand.Rand) int {
		return clampSize(sim.LogNormal(rng, mu, sigma))
	}}
}

// OtherSizes models the residual MIME types.
func OtherSizes() *SizeModel {
	const sigma = 1.2
	mu := sim.LogNormalMean(4000, sigma)
	return &SizeModel{MIME: media.MIMEOther, draw: func(rng *rand.Rand) int {
		return clampSize(sim.LogNormal(rng, mu, sigma))
	}}
}

// ContentModel draws (MIME, size) pairs according to the paper's mix.
type ContentModel struct {
	gif, html, jpeg, other *SizeModel
}

// NewContentModel builds the Figure 5 content model.
func NewContentModel() *ContentModel {
	return &ContentModel{
		gif:   GIFSizes(),
		html:  HTMLSizes(),
		jpeg:  JPEGSizes(),
		other: OtherSizes(),
	}
}

// Sample draws one object's MIME type and size.
func (c *ContentModel) Sample(rng *rand.Rand) (mime string, size int) {
	u := rng.Float64()
	switch {
	case u < FracGIF:
		return c.gif.MIME, c.gif.Sample(rng)
	case u < FracGIF+FracHTML:
		return c.html.MIME, c.html.Sample(rng)
	case u < FracGIF+FracHTML+FracJPEG:
		return c.jpeg.MIME, c.jpeg.Sample(rng)
	default:
		return c.other.MIME, c.other.Sample(rng)
	}
}

// SampleMIME draws a size for a specific MIME type.
func (c *ContentModel) SampleMIME(rng *rand.Rand, mime string) int {
	switch mime {
	case media.MIMESGIF:
		return c.gif.Sample(rng)
	case media.MIMEHTML:
		return c.html.Sample(rng)
	case media.MIMESJPG:
		return c.jpeg.Sample(rng)
	default:
		return c.other.Sample(rng)
	}
}
