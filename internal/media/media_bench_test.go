package media

import (
	"math/rand"
	"testing"
)

func benchImage(b *testing.B) *Image {
	b.Helper()
	return Generate(rand.New(rand.NewSource(1)), 128, 128)
}

func BenchmarkEncodeSJPG(b *testing.B) {
	im := benchImage(b)
	b.SetBytes(int64(len(im.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSJPG(im, 75)
	}
}

func BenchmarkDecodeSJPG(b *testing.B) {
	data := EncodeSJPG(benchImage(b), 75)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSJPG(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSGIF(b *testing.B) {
	im := benchImage(b)
	b.SetBytes(int64(len(im.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSGIF(im, 64)
	}
}

func BenchmarkDecodeSGIF(b *testing.B) {
	data := EncodeSGIF(benchImage(b), 64)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSGIF(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDownscale(b *testing.B) {
	im := benchImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Downscale(2)
	}
}

func BenchmarkRewriteHTML(b *testing.B) {
	page := GenerateHTML(rand.New(rand.NewSource(2)), 20000, nil)
	opt := MungeOptions{
		RewriteSrc:   func(s string) string { return "/d?u=" + s },
		OriginalLink: true,
		Toolbar:      "<div>t</div>",
	}
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RewriteHTML(page, opt)
	}
}

func BenchmarkDecodeSJPGHalf(b *testing.B) {
	data := EncodeSJPG(benchImage(b), 75)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSJPG(data, 2); err != nil {
			b.Fatal(err)
		}
	}
}
