package media

import (
	"math"
	"math/rand"
)

// This file synthesizes content at a target encoded size, so the
// trace generator's size samples (paper Figure 5) can be materialized
// into real bytes that the distillers then really process.

// GenerateContent produces encoded content of approximately
// targetBytes for the given MIME type. The returned size tracks the
// target within roughly ±25% for images (codec output is not exactly
// steerable) and a few bytes for HTML.
func GenerateContent(rng *rand.Rand, mime string, targetBytes int) []byte {
	targetBytes = max(targetBytes, 64)
	switch mime {
	case MIMESGIF:
		return generateSizedImage(rng, targetBytes, func(im *Image) []byte { return EncodeSGIF(im, 64) })
	case MIMESJPG:
		return generateSizedImage(rng, targetBytes, func(im *Image) []byte { return EncodeSJPG(im, 75) })
	case MIMEHTML:
		return GenerateHTML(rng, targetBytes, nil)
	default:
		buf := make([]byte, targetBytes)
		rng.Read(buf)
		return buf
	}
}

// generateSizedImage searches for image dimensions whose encoding
// lands near the target size, using a calibrate-then-correct loop.
func generateSizedImage(rng *rand.Rand, target int, encode func(*Image) []byte) []byte {
	// Initial guess: bytes-per-pixel ~0.6 for both codecs on
	// value-noise content.
	bpp := 0.6
	side := max(int(math.Sqrt(float64(target)/bpp)), 8)
	var best []byte
	for iter := 0; iter < 4; iter++ {
		im := Generate(rng, side, side)
		data := encode(im)
		if best == nil || absInt(len(data)-target) < absInt(len(best)-target) {
			best = data
		}
		ratio := float64(len(data)) / float64(target)
		if ratio > 0.8 && ratio < 1.25 {
			break
		}
		side = min(max(int(float64(side)/math.Sqrt(ratio)), 8), 4096)
	}
	return best
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// DetectMIME sniffs the synthetic content type from magic bytes.
func DetectMIME(data []byte) string {
	switch {
	case len(data) >= 4 && string(data[:4]) == "SGIF":
		return MIMESGIF
	case len(data) >= 4 && string(data[:4]) == "SJPG":
		return MIMESJPG
	case looksLikeHTML(data):
		return MIMEHTML
	default:
		return MIMEOther
	}
}

func looksLikeHTML(data []byte) bool {
	head := data[:min(len(data), 64)]
	for i := 0; i+5 < len(head); i++ {
		if head[i] == '<' {
			switch {
			case equalFold(head[i+1:], "html"),
				equalFold(head[i+1:], "head"),
				equalFold(head[i+1:], "body"),
				equalFold(head[i+1:], "!doc"):
				return true
			}
		}
	}
	return false
}

// equalFold reports whether s starts with the lower-case ASCII prefix,
// letters of s matching in either case.
func equalFold[T string | []byte](s T, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}
