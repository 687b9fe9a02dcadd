package media

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestImageAtSetClamping(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(1, 1, 100)
	if im.At(1, 1) != 100 {
		t.Fatal("Set/At round trip failed")
	}
	if im.At(-5, 1) != im.At(0, 1) || im.At(10, 1) != im.At(3, 1) {
		t.Fatal("At should clamp out-of-bounds coordinates")
	}
	im.Set(-1, -1, 42) // must not panic
	im.Set(99, 99, 42)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(1)), 64, 64)
	b := Generate(rand.New(rand.NewSource(1)), 64, 64)
	if MeanAbsDiff(a, b) != 0 {
		t.Fatal("same seed produced different images")
	}
}

func TestDownscale(t *testing.T) {
	im := Generate(rand.New(rand.NewSource(2)), 64, 48)
	small := im.Downscale(2)
	if small.W != 32 || small.H != 24 {
		t.Fatalf("downscaled dims = %dx%d", small.W, small.H)
	}
	same := im.Downscale(1)
	if MeanAbsDiff(im, same) != 0 {
		t.Fatal("factor 1 should copy")
	}
	tiny := NewImage(3, 3).Downscale(8)
	if tiny.W != 1 || tiny.H != 1 {
		t.Fatalf("min dims = %dx%d", tiny.W, tiny.H)
	}
}

func TestBoxBlurSmooths(t *testing.T) {
	im := NewImage(16, 16)
	// Checkerboard: maximal high-frequency content.
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if (x+y)%2 == 0 {
				im.Set(x, y, 255)
			}
		}
	}
	blurred := im.BoxBlur(1)
	// Interior pixels should approach the mean.
	v := blurred.At(8, 8)
	if v < 100 || v > 155 {
		t.Fatalf("blur failed: interior pixel %d", v)
	}
	if MeanAbsDiff(im, im.BoxBlur(0)) != 0 {
		t.Fatal("radius 0 should copy")
	}
}

func TestSGIFRoundTrip(t *testing.T) {
	im := Generate(rand.New(rand.NewSource(3)), 100, 80)
	data := EncodeSGIF(im, 256)
	got, err := DecodeSGIF(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != im.W || got.H != im.H {
		t.Fatalf("dims = %dx%d", got.W, got.H)
	}
	// 256 levels: quantisation error < 1 level.
	if d := MeanAbsDiff(im, got); d > 1.0 {
		t.Fatalf("round-trip error %.2f too high for 256 colors", d)
	}
}

func TestSGIFPaletteReductionShrinks(t *testing.T) {
	im := Generate(rand.New(rand.NewSource(4)), 128, 128)
	full := EncodeSGIF(im, 256)
	reduced := EncodeSGIF(im, 8)
	if len(reduced) >= len(full) {
		t.Fatalf("8-color SGIF (%d B) not smaller than 256-color (%d B)", len(reduced), len(full))
	}
}

func TestSJPGRoundTripQuality(t *testing.T) {
	im := Generate(rand.New(rand.NewSource(6)), 96, 96)
	hi := EncodeSJPG(im, 90)
	lo := EncodeSJPG(im, 10)
	if len(lo) >= len(hi) {
		t.Fatalf("low quality (%d B) not smaller than high (%d B)", len(lo), len(hi))
	}
	decHi, err := DecodeSJPG(hi)
	if err != nil {
		t.Fatal(err)
	}
	decLo, err := DecodeSJPG(lo)
	if err != nil {
		t.Fatal(err)
	}
	errHi := MeanAbsDiff(im, decHi)
	errLo := MeanAbsDiff(im, decLo)
	if errHi >= errLo {
		t.Fatalf("quality ordering violated: err(q90)=%.2f err(q10)=%.2f", errHi, errLo)
	}
	if errHi > 8 {
		t.Fatalf("q90 round-trip error %.2f too high", errHi)
	}
}

func TestSJPGNonMultipleOf8(t *testing.T) {
	im := Generate(rand.New(rand.NewSource(8)), 37, 19)
	data := EncodeSJPG(im, 70)
	got, err := DecodeSJPG(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 37 || got.H != 19 {
		t.Fatalf("dims = %dx%d", got.W, got.H)
	}
}

func TestDistillationShrinksLikeFigure3(t *testing.T) {
	// Paper Figure 3: scale 2x + quality 25 turns 10KB into 1.5KB
	// (a factor of ~6.7). Verify our pipeline gives a substantial
	// reduction of the same flavour.
	rng := rand.New(rand.NewSource(9))
	orig := GenerateContent(rng, MIMESJPG, 10*1024)
	im, err := DecodeSJPG(orig)
	if err != nil {
		t.Fatal(err)
	}
	distilled := EncodeSJPG(im.Downscale(2), 25)
	ratio := float64(len(orig)) / float64(len(distilled))
	if ratio < 3 {
		t.Fatalf("distillation ratio %.1f, want >= 3 (paper ~6.7)", ratio)
	}
}

func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	check := func(data []byte) bool {
		// Both decoders must return an error or an image, never panic.
		if im, err := DecodeSGIF(data); err == nil && im == nil {
			return false
		}
		if im, err := DecodeSJPG(data); err == nil && im == nil {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	im := Generate(rand.New(rand.NewSource(10)), 64, 64)
	for _, data := range [][]byte{EncodeSGIF(im, 32), EncodeSJPG(im, 60)} {
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			cut := data[:int(float64(len(data))*frac)]
			_, err1 := DecodeSGIF(cut)
			_, err2 := DecodeSJPG(cut)
			if err1 == nil && err2 == nil {
				t.Fatalf("truncation to %.0f%% accepted", frac*100)
			}
		}
	}
}

func TestGenerateHTMLTargetsSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, target := range []int{512, 5000, 20000} {
		page := GenerateHTML(rng, target, nil)
		if len(page) < target/2 || len(page) > target*2 {
			t.Fatalf("target %d produced %d bytes", target, len(page))
		}
		if !strings.Contains(string(page), "<html>") {
			t.Fatal("missing html tag")
		}
	}
}

func TestRewriteFindsImageRefs(t *testing.T) {
	html := []byte(`<html><body>
<img src="http://a.example/x.sgif" alt="one">
<IMG SRC='http://b.example/y.sjpg'>
<img src=http://c.example/z.sgif >
<img alt="no src here">
</body></html>`)
	var got []string
	RewriteHTML(html, MungeOptions{RewriteSrc: func(src string) string {
		got = append(got, src)
		return src
	}})
	want := []string{"http://a.example/x.sgif", "http://b.example/y.sjpg", "http://c.example/z.sgif"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("rewrote %q, want %q", got, want)
	}
}

func TestRewriteHTML(t *testing.T) {
	html := []byte(`<html><body><p>hi</p><img src="http://a/x.sgif"></body></html>`)
	out := RewriteHTML(html, MungeOptions{
		RewriteSrc:   func(src string) string { return "/distill?u=" + src },
		OriginalLink: true,
		Toolbar:      `<div id="toolbar">TranSend</div>`,
	})
	s := string(out)
	if !strings.Contains(s, `src="/distill?u=http://a/x.sgif"`) {
		t.Fatalf("src not rewritten: %s", s)
	}
	if !strings.Contains(s, `<a href="http://a/x.sgif">[original]</a>`) {
		t.Fatalf("original link missing: %s", s)
	}
	if !strings.HasPrefix(s, `<html><body><div id="toolbar">`) {
		t.Fatalf("toolbar not after body: %s", s)
	}
}

func TestRewriteHTMLNoBody(t *testing.T) {
	out := RewriteHTML([]byte(`<p>x</p>`), MungeOptions{Toolbar: "<b>T</b>"})
	if !strings.HasPrefix(string(out), "<b>T</b>") {
		t.Fatalf("toolbar fallback failed: %s", out)
	}
}

func TestStripTags(t *testing.T) {
	got := string(StripTags([]byte("<html><body><p>hello <b>world</b></p></body></html>")))
	if got != "hello world" {
		t.Fatalf("StripTags = %q", got)
	}
}

func TestGenerateContentSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, mime := range []string{MIMESGIF, MIMESJPG, MIMEHTML} {
		for _, target := range []int{1024, 8192, 30000} {
			data := GenerateContent(rng, mime, target)
			ratio := float64(len(data)) / float64(target)
			if ratio < 0.4 || ratio > 2.5 {
				t.Fatalf("%s target %d produced %d bytes (ratio %.2f)", mime, target, len(data), ratio)
			}
			if got := DetectMIME(data); got != mime {
				t.Fatalf("DetectMIME(%s content) = %s", mime, got)
			}
		}
	}
}

func TestGenerateContentOther(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := GenerateContent(rng, MIMEOther, 500)
	if len(data) != 500 {
		t.Fatalf("other content size = %d", len(data))
	}
	if DetectMIME(data) == MIMEHTML {
		t.Fatal("random bytes detected as HTML")
	}
}

func TestMeanAbsDiffPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeanAbsDiff(NewImage(2, 2), NewImage(3, 3))
}
