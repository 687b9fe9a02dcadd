// Package distiller implements TranSend's datatype-specific workers
// (paper §3.1.6) and the additional TACC services of §5.1. Each worker
// is a stateless tacc.Worker: it reads its parameters from the stage
// definition and the user profile, does real computation on the
// content, and returns the transformed blob. Workers deliberately make
// no fault-tolerance or threading decisions — that is the worker
// stub's job.
//
// Profile/parameter keys honored by the image distillers:
//
//	scale    integer downscale factor (default 2). SJPG decodes 2, 4
//	         and 8 straight to the reduced raster; any other factor
//	         decodes full size and box-filters, at a cost that follows
//	         the image, never the factor
//	colors   SGIF palette size after distillation (default 16)
//	quality  SJPG re-encode quality (default 25)
//	blur     optional low-pass radius before encoding (default 0);
//	         forces the full-size decode, costs the same at any radius
//	minsize  objects at or below this size pass through untouched
//	         (default 1024 — the paper's 1 KB distillation threshold)
package distiller

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/media"
	"repro/internal/tacc"
)

// Worker class names.
const (
	ClassSGIF    = "distill-sgif"
	ClassSJPG    = "distill-sjpg"
	ClassHTML    = "munge-html"
	ClassKeyword = "filter-keyword"
	ClassCulture = "aggregate-culture"
	ClassSearch  = "aggregate-metasearch"
	ClassEncrypt = "rewebber-encrypt"
	ClassDecrypt = "rewebber-decrypt"
	ClassThin    = "thin-client"
)

// DefaultMinSize is the 1 KB distillation threshold from §4.1:
// "data under 1 KB is transferred to the client unmodified, since
// distillation of such small content rarely results in a size
// reduction."
const DefaultMinSize = 1024

// RegisterAll installs every worker class in a registry.
func RegisterAll(reg *tacc.Registry) {
	for _, w := range []tacc.Worker{SGIFDistiller, SJPGDistiller, HTMLMunger{}, KeywordFilter{}, CultureAggregator{},
		MetasearchAggregator{}, EncryptWorker{}, DecryptWorker{}, ThinClient{}} {
		reg.Register(w.Class(), func() tacc.Worker { return w })
	}
}

// ImageDistiller is both image workers: one body over what differs
// between them — how an original becomes a raster reduced by a factor,
// how a raster is re-encoded at a fidelity level, and which profile key
// sets that level.
type ImageDistiller struct {
	class, mime, levelKey string
	levelDefault          int
	decode                func(data []byte, scale int) (*media.Image, error)
	encode                func(im *media.Image, level int) []byte
}

// SGIFDistiller scales and palette-reduces SGIF images — the GIF
// distiller ("GIF-to-JPEG conversion followed by JPEG degradation" is
// approximated by palette + scale reduction on the same codec family,
// keeping the size-linear cost profile of Figure 7). Run lengths say
// nothing about a block of pixels until every pixel is out, so there is
// no smaller raster to decode to: it expands, then scales.
var SGIFDistiller = ImageDistiller{ClassSGIF, media.MIMESGIF, "colors", 16,
	func(data []byte, scale int) (*media.Image, error) {
		im, err := media.DecodeSGIF(data)
		if err != nil {
			return nil, err
		}
		return im.Downscale(scale), nil
	}, media.EncodeSGIF}

// SJPGDistiller scales, low-pass filters, and re-encodes SJPG images
// at reduced quality — "scaling and low-pass filtering of JPEG images
// using the off-the-shelf jpeg-6a library", whose decoder scales inside
// the inverse transform (scale_denom), as media.DecodeSJPG does: the
// raster it decodes to is already the size that ships.
var SJPGDistiller = ImageDistiller{ClassSJPG, media.MIMESJPG, "quality", 25,
	func(data []byte, scale int) (*media.Image, error) { return media.DecodeSJPG(data, scale) }, media.EncodeSJPG}

// Class implements tacc.Worker.
func (d ImageDistiller) Class() string { return d.class }

// Process implements tacc.Worker. A blur has to see the full-size
// raster, so it alone decodes at 1 and scales afterwards.
func (d ImageDistiller) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	in := task.Input
	if in.Size() <= task.ParamInt("minsize", DefaultMinSize) {
		return in.WithMeta("distilled", "skipped-small"), nil
	}
	scale, blur := task.ParamInt("scale", 2), task.ParamInt("blur", 0)
	decodeAt := scale
	if blur > 0 {
		decodeAt = 1
	}
	im, err := d.decode(in.Data, decodeAt)
	if err != nil {
		return tacc.Blob{}, fmt.Errorf("distiller: %s: %w", d.class, err)
	}
	if blur > 0 {
		im = im.BoxBlur(blur).Downscale(scale)
	}
	out := d.encode(im, task.ParamInt(d.levelKey, d.levelDefault))
	blob := tacc.Blob{MIME: d.mime, Data: out}
	blob = blob.WithMeta("origSize", strconv.Itoa(in.Size()))
	return blob.WithMeta("distilled", "true"), nil
}

// HTMLMunger rewrites inline image references to point at the
// distillation service, appends links to the originals, and prepends
// the TranSend toolbar (Figure 4). The munger is where the service's
// user interface lives: "the user interface for TranSend is thus
// controlled by the HTML distiller".
type HTMLMunger struct{}

// Class implements tacc.Worker.
func (HTMLMunger) Class() string { return ClassHTML }

// Process implements tacc.Worker.
func (HTMLMunger) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	prefix := task.Param("distillPrefix", "/distill?url=")
	quality := task.Param("quality", "25")
	scale := task.Param("scale", "2")
	toolbar := ""
	if task.ParamBool("toolbar", true) {
		toolbar = fmt.Sprintf(
			`<div class="transend-toolbar">TranSend | quality=%s scale=%s | <a href="/prefs">preferences</a> | <a href="?raw=1">view original</a></div>`,
			quality, scale)
	}
	out := media.RewriteHTML(task.Input.Data, media.MungeOptions{
		RewriteSrc: func(src string) string {
			return prefix + src + "&quality=" + quality + "&scale=" + scale
		},
		OriginalLink: task.ParamBool("originalLinks", true),
		Toolbar:      toolbar,
	})
	return tacc.Blob{MIME: media.MIMEHTML, Data: out, Meta: map[string]string{"munged": "true"}}, nil
}
