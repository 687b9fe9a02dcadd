package media

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
)

// This file provides the HTML half of the content domain: a generator
// that synthesizes realistic pages (text, links, inline image
// references) at a target byte size, and the scanning primitives the
// HTML-munger distiller is built on (paper §3.1.6: mark up inline
// image references with distillation preferences, add links to the
// originals, and prepend a control toolbar).

var loremWords = strings.Fields(`
lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod
tempor incididunt ut labore et dolore magna aliqua enim ad minim veniam
quis nostrud exercitation ullamco laboris nisi aliquip ex ea commodo
consequat duis aute irure in reprehenderit voluptate velit esse cillum
fugiat nulla pariatur excepteur sint occaecat cupidatat non proident
sunt culpa qui officia deserunt mollit anim id est laborum berkeley
cluster network service scalable proxy distillation cache worker`)

// GenerateHTML synthesizes a page of roughly targetBytes, containing
// paragraphs, anchors and inline image references. imageRefs returns
// the src values to embed (in order); pass nil for defaults.
func GenerateHTML(rng *rand.Rand, targetBytes int, imageRefs []string) []byte {
	targetBytes = max(targetBytes, 128)
	var b strings.Builder
	b.Grow(targetBytes + 256)
	b.WriteString("<html><head><title>")
	writeWords(&b, rng, 4)
	b.WriteString("</title></head><body>\n")
	imgIdx := 0
	for b.Len() < targetBytes-32 {
		switch rng.Intn(6) {
		case 0: // heading
			b.WriteString("<h2>")
			writeWords(&b, rng, 3+rng.Intn(4))
			b.WriteString("</h2>\n")
		case 1: // link
			fmt.Fprintf(&b, `<a href="http://origin%d.example/page%d.html">`, rng.Intn(50), rng.Intn(1000))
			writeWords(&b, rng, 2+rng.Intn(3))
			b.WriteString("</a>\n")
		case 2: // inline image
			var src string
			if imgIdx < len(imageRefs) {
				src = imageRefs[imgIdx]
				imgIdx++
			} else {
				src = fmt.Sprintf("http://origin%d.example/img%d.sgif", rng.Intn(50), rng.Intn(1000))
			}
			fmt.Fprintf(&b, `<img src="%s" alt="figure">`+"\n", src)
		default: // paragraph
			b.WriteString("<p>")
			writeWords(&b, rng, 20+rng.Intn(40))
			b.WriteString("</p>\n")
		}
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

func writeWords(b *strings.Builder, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(loremWords[rng.Intn(len(loremWords))])
	}
}

// MungeOptions controls RewriteHTML, mirroring the knobs the paper's
// HTML distiller exposed per user profile.
type MungeOptions struct {
	// RewriteSrc maps an original image URL to its distilled URL.
	// Nil leaves sources untouched.
	RewriteSrc func(src string) string
	// OriginalLink, if set, appends an anchor to the original
	// content after each rewritten image.
	OriginalLink bool
	// Toolbar, if non-empty, is inserted immediately after <body>
	// (the paper's Figure 4 control toolbar).
	Toolbar string
}

// RewriteHTML applies the munge options and returns the new page, in
// one pass over the bytes into one buffer. The scan for <img ...> tags
// and their src attributes is deliberately forgiving — TranSend's HTML
// distiller had to survive pathological pages — and ignores the case
// of ASCII letters only.
func RewriteHTML(html []byte, opt MungeOptions) []byte {
	m := munger{toolbar: opt.Toolbar, body: -1}
	m.out = make([]byte, 0, len(html)+len(html)/8+len(opt.Toolbar)+512)
	pos, last := 0, 0
	for {
		i := indexFold(html[pos:], "<img")
		if i < 0 {
			break
		}
		start := pos + i
		end := bytes.IndexByte(html[start:], '>')
		if end < 0 {
			break
		}
		end += start + 1
		pos = end
		tag := html[start:end]
		valStart := indexFold(tag, "src=")
		if valStart < 0 {
			continue
		}
		valStart += len("src=")
		var valEnd int
		if quote := tag[valStart]; quote == '"' || quote == '\'' {
			valStart++
			if valEnd = bytes.IndexByte(tag[valStart:], quote); valEnd < 0 {
				continue
			}
		} else {
			valEnd = bytes.IndexAny(tag[valStart:], " \t\n>") // the tag ends in '>'
		}
		src := tag[valStart : valStart+valEnd]
		write(&m, html[last:start+valStart])
		if opt.RewriteSrc != nil {
			write(&m, opt.RewriteSrc(string(src)))
		} else {
			write(&m, src)
		}
		write(&m, html[start+valStart+valEnd:end])
		if opt.OriginalLink {
			write(&m, `<a href="`)
			write(&m, src)
			write(&m, `">[original]</a>`)
		}
		last = end
	}
	write(&m, html[last:])
	if m.toolbar != "" && m.body < 0 { // no <body to follow: the toolbar leads
		return append([]byte(m.toolbar), m.out...)
	}
	return m.out
}

// munger is RewriteHTML's output: the page so far, and the toolbar
// until it is written — right behind the '>' that closes the first
// "<body" of the output, wherever a rewrite may have put either.
type munger struct {
	out     []byte
	toolbar string // pending; "" once written
	body    int    // offset in out of the first "<body", -1 until seen
}

// write appends p, then the toolbar if p completed its place.
func write[T string | []byte](m *munger, p T) {
	from := len(m.out)
	m.out = append(m.out, p...)
	if m.toolbar == "" {
		return
	}
	if m.body < 0 {
		from = max(from-len("<body")+1, 0) // a match may straddle two writes
		i := indexFold(m.out[from:], "<body")
		if i < 0 {
			return
		}
		m.body = from + i
		from = m.body
	}
	if i := bytes.IndexByte(m.out[from:], '>'); i >= 0 {
		at, n := from+i+1, len(m.out)
		m.out = append(m.out, m.toolbar...)
		copy(m.out[at+len(m.toolbar):], m.out[at:n])
		copy(m.out[at:], m.toolbar)
		m.toolbar = ""
	}
}

// indexFold returns the offset of the first pat in s, ASCII letters
// matching in either case, or -1. pat is lower-case; one that opens a
// tag is found by jumping from '<' to '<'.
func indexFold(s []byte, pat string) int {
	for i := 0; i < len(s); i++ {
		if pat[0] == '<' {
			j := bytes.IndexByte(s[i:], '<')
			if j < 0 {
				return -1
			}
			i += j
		}
		if equalFold(s[i:], pat) {
			return i
		}
	}
	return -1
}

// StripTags removes all markup, returning the text content — the
// thin-client ("PalmPilot") simplification primitive from §5.1.
func StripTags(html []byte) []byte {
	var b strings.Builder
	b.Grow(len(html))
	inTag := false
	for _, c := range string(html) {
		switch {
		case c == '<':
			inTag = true
		case c == '>':
			inTag = false
			b.WriteByte(' ')
		case !inTag:
			b.WriteRune(c)
		}
	}
	return []byte(strings.Join(strings.Fields(b.String()), " "))
}
