package media

import (
	"bytes"
	"math/rand"
	"testing"
)

// mungeVariants are the option combinations the munger is driven with.
func mungeVariants() map[string]MungeOptions {
	rewrite := func(src string) string { return "/distill?url=" + src + "&quality=25&scale=2" }
	toolbar := `<div class="transend-toolbar">TranSend | <a href="/prefs">preferences</a></div>`
	return map[string]MungeOptions{
		"all":          {RewriteSrc: rewrite, OriginalLink: true, Toolbar: toolbar},
		"no toolbar":   {RewriteSrc: rewrite, OriginalLink: true},
		"no links":     {RewriteSrc: rewrite, Toolbar: toolbar},
		"toolbar only": {Toolbar: toolbar},
		"nothing":      {},
		// A rewrite that itself opens the body: the toolbar follows the
		// output's first "<body", not the input's.
		"body from rewrite": {RewriteSrc: func(string) string { return "<BODY x" }, OriginalLink: true, Toolbar: toolbar},
	}
}

func TestRewriteHTMLByteIdentical(t *testing.T) {
	pages := map[string]string{
		"quoted":            `<html><body><p>hi</p><img src="http://a/x.sgif" alt="one"></body></html>`,
		"single quoted":     `<html><body><img src='http://a/x.sgif'></body></html>`,
		"unquoted":          `<html><body><img src=http://c.example/z.sgif ><img src=http://c.example/y.sgif></body></html>`,
		"upper case":        `<HTML><BODY BGCOLOR="white"><IMG SRC="http://b/y.sjpg"><Img sRc=http://b/z.sjpg></BODY></HTML>`,
		"no body":           `<p>x</p><img src="a.sgif">`,
		"no src":            `<html><body><img alt="no src here"><img src="b.sgif"></body></html>`,
		"unterminated tag":  `<html><body><img src="a.sgif"><p>text<img src="b.sgif"`,
		"unterminated body": `<html><img src="a.sgif"><body`,
		"body never closed": `<html><body class="x" <p>no angle bracket after this`,
		"unclosed quote":    `<body><img src="a.sgif><p>next</p><img src="b.sgif">`,
		"body after images": `<img src="a.sgif"><img src=b.sgif><body><p>late</p></body>`,
		"body in src":       `<img src="<body"><p>x</p>`,
		"body in alt":       `<img alt="<body" src="a.sgif"><body>`,
		"data-src first":    `<body><img data-src="lazy.sgif" src="real.sgif"></body>`,
		"image tags only":   `<img src=a><img src=b><img src=c>`,
		"almost tags":       `<im<i<<imgx src=q>><bod<body<body>`,
		"empty src":         `<body><img src=""><img src=></body>`,
		"empty page":        ``,
	}
	rng := rand.New(rand.NewSource(4))
	for _, size := range []int{128, 4000, 20 << 10, 32 << 10} {
		pages[string(rune('A'+len(pages)))+" generated"] = string(GenerateHTML(rng, size, []string{"http://o.example/a.sgif"}))
	}
	for pname, page := range pages {
		for oname, opt := range mungeVariants() {
			got, want := RewriteHTML([]byte(page), opt), refRewriteHTML([]byte(page), opt)
			if !bytes.Equal(got, want) {
				t.Errorf("%s / %s:\n got %q\nwant %q", pname, oname, got, want)
			}
		}
	}
}

// The one place the rewrite departs from the reference: the reference
// took its offsets from strings.ToLower of the page, which re-encodes
// bytes that are not UTF-8 as three-byte U+FFFD, so every tag behind a
// Latin-1 letter was cut two bytes off per letter. Bytes are bytes now.
func TestRewriteHTMLNonUTF8Page(t *testing.T) {
	page := []byte("<body>caf\xe9 <IMG SRC=\"a.sgif\"> na\xefve</body>")
	opt := MungeOptions{RewriteSrc: func(src string) string { return "/d?u=" + src }, Toolbar: "<b>T</b>"}
	want := "<body><b>T</b>caf\xe9 <IMG SRC=\"/d?u=a.sgif\"> na\xefve</body>"
	if got := RewriteHTML(page, opt); string(got) != want {
		t.Fatalf("got %q\nwant %q", got, want)
	}
	if ref := refRewriteHTML(page, opt); string(ref) == want {
		t.Fatal("the reference handles this page after all: fold the case into the byte-identical table")
	}
}

// TestRewriteHTMLByteIdenticalOnMangledPages cuts, splices and
// re-cases generated pages: the forgiving scanner's corner cases, found
// by volume rather than by hand. ASCII only — the reference lower-cased
// the page as UTF-8, which moves its offsets on bytes that are not.
func TestRewriteHTMLByteIdenticalOnMangledPages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	frags := []string{"<img", "<IMG ", "src=", "SRC='", `src="`, "<body", "<BODY>", ">", `"`, "'", " ", "<", "\n"}
	for i := 0; i < 3000; i++ {
		page := GenerateHTML(rng, 128+rng.Intn(600), nil)
		for n := rng.Intn(6); n > 0; n-- {
			at := rng.Intn(len(page) + 1)
			switch rng.Intn(3) {
			case 0: // cut
				page = page[:at]
			case 1: // splice a fragment in
				page = append(page[:at:at], append([]byte(frags[rng.Intn(len(frags))]), page[at:]...)...)
			case 2: // upper-case a stretch
				end := min(at+rng.Intn(40), len(page))
				copy(page[at:end], bytes.ToUpper(page[at:end]))
			}
		}
		for oname, opt := range mungeVariants() {
			got, want := RewriteHTML(page, opt), refRewriteHTML(page, opt)
			if !bytes.Equal(got, want) {
				t.Fatalf("page %d / %s:\n page %q\n got %q\nwant %q", i, oname, page, got, want)
			}
		}
	}
}
