package distiller

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/media"
	"repro/internal/tacc"
)

// This file implements the §5.1 services built "entirely at the TACC
// and Service layers": keyword filtering, the Bay Area Culture Page,
// TranSend metasearch, the anonymous rewebber, and thin-client
// simplification. Each is a handful of lines of real logic — the
// paper's point is precisely that the SNS layer makes these trivial.

// KeywordFilter marks occurrences of user-chosen keywords in HTML with
// large bold red typeface — the paper's 10-line-of-Perl example. The
// pattern comes from the user profile key "keywords" (comma separated)
// or "pattern" (a regular expression).
type KeywordFilter struct{}

// Class implements tacc.Worker.
func (KeywordFilter) Class() string { return ClassKeyword }

// Process implements tacc.Worker.
func (KeywordFilter) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	pattern := task.Param("pattern", "")
	if pattern == "" {
		words := strings.Split(task.Param("keywords", ""), ",")
		var quoted []string
		for _, w := range words {
			w = strings.TrimSpace(w)
			if w != "" {
				quoted = append(quoted, regexp.QuoteMeta(w))
			}
		}
		if len(quoted) == 0 {
			return task.Input, nil // nothing to mark
		}
		pattern = strings.Join(quoted, "|")
	}
	re, err := regexp.Compile("(?i)(" + pattern + ")")
	if err != nil {
		return tacc.Blob{}, fmt.Errorf("distiller: keyword pattern: %w", err)
	}
	out := re.ReplaceAll(task.Input.Data,
		[]byte(`<b style="color:red;font-size:large">$1</b>`))
	return tacc.Blob{MIME: media.MIMEHTML, Data: out}, nil
}

// dateRe matches the "extremely general, layout-independent
// heuristics" for event dates: month-name dates and numeric dates.
// Like the paper's version it is deliberately loose and picks up
// 10-20% spurious matches; users ignore them (BASE approximate
// answers at the application layer).
var dateRe = regexp.MustCompile(`(?i)\b(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s+\d{1,2}\b|\b\d{1,2}/\d{1,2}(/\d{2,4})?\b`)

// CultureAggregator collates event listings from several cultural
// pages into one "culture this week" page (§2.3, §5.1).
type CultureAggregator struct{}

// Class implements tacc.Worker.
func (CultureAggregator) Class() string { return ClassCulture }

// Process implements tacc.Worker.
func (CultureAggregator) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	inputs := task.Inputs
	if len(inputs) == 0 && task.Input.Size() > 0 {
		inputs = []tacc.Blob{task.Input}
	}
	type event struct{ date, desc string }
	var events []event
	for _, in := range inputs {
		text := string(media.StripTags(in.Data))
		for _, loc := range dateRe.FindAllStringIndex(text, -1) {
			date := text[loc[0]:loc[1]]
			// The "description" heuristic: the words following
			// the date, up to a sentence-ish boundary.
			rest := text[loc[1]:]
			end := len(rest)
			if end > 90 {
				end = 90
			}
			if dot := strings.IndexAny(rest[:end], ".;"); dot >= 0 {
				end = dot
			}
			desc := strings.TrimSpace(rest[:end])
			if desc != "" {
				events = append(events, event{date: date, desc: desc})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].date < events[j].date })
	var b strings.Builder
	b.WriteString("<html><head><title>Culture This Week</title></head><body><h1>Culture This Week</h1><ul>\n")
	max := task.ParamInt("maxevents", 50)
	for i, e := range events {
		if i >= max {
			break
		}
		fmt.Fprintf(&b, "<li><b>%s</b> — %s</li>\n", e.date, e.desc)
	}
	b.WriteString("</ul></body></html>\n")
	blob := tacc.Blob{MIME: media.MIMEHTML, Data: []byte(b.String())}
	return blob.WithMeta("events", strconv.Itoa(len(events))), nil
}

// resultRe extracts anchors from synthetic search-engine result pages.
var resultRe = regexp.MustCompile(`(?i)<a\s+href="([^"]+)"[^>]*>([^<]+)</a>`)

// MetasearchAggregator queries "a number of popular search engines"
// (its aggregation inputs are their result pages) and collates the top
// results into a single page — the paper's 3-pages-of-Perl,
// 2.5-hours-to-build example.
type MetasearchAggregator struct{}

// Class implements tacc.Worker.
func (MetasearchAggregator) Class() string { return ClassSearch }

// Process implements tacc.Worker.
func (MetasearchAggregator) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	perEngine := task.ParamInt("perEngine", 5)
	type hit struct{ url, title string }
	var hits []hit
	seen := map[string]bool{}
	for _, in := range task.Inputs {
		matches := resultRe.FindAllStringSubmatch(string(in.Data), -1)
		taken := 0
		for _, m := range matches {
			if taken >= perEngine {
				break
			}
			if seen[m[1]] {
				continue // dedup across engines
			}
			seen[m[1]] = true
			hits = append(hits, hit{url: m[1], title: strings.TrimSpace(m[2])})
			taken++
		}
	}
	query := task.Param("query", "")
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>Metasearch: %s</title></head><body><h1>Results for %q</h1><ol>\n", query, query)
	for _, h := range hits {
		fmt.Fprintf(&b, `<li><a href="%s">%s</a></li>`+"\n", h.url, h.title)
	}
	b.WriteString("</ol></body></html>\n")
	blob := tacc.Blob{MIME: media.MIMEHTML, Data: []byte(b.String())}
	return blob.WithMeta("results", strconv.Itoa(len(hits))), nil
}

// ErrNoKey reports a rewebber task without key material.
var ErrNoKey = errors.New("distiller: rewebber requires a 'rewebkey' profile entry")

// rewebGCM is the cipher both rewebber sides run under the profile's
// key; what names the failing side in an error.
func rewebGCM(task *tacc.Task, what string) (cipher.AEAD, error) {
	k := task.Param("rewebkey", "")
	if k == "" {
		return nil, ErrNoKey
	}
	sum := sha256.Sum256([]byte(k))
	block, err := aes.NewCipher(sum[:])
	if err != nil {
		return nil, fmt.Errorf("distiller: %s: %w", what, err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("distiller: %s: %w", what, err)
	}
	return gcm, nil
}

// EncryptWorker is the anonymous rewebber's publishing side (§5.1):
// computationally intensive, highly parallelizable encryption of
// content under a key from the profile database.
type EncryptWorker struct{}

// Class implements tacc.Worker.
func (EncryptWorker) Class() string { return ClassEncrypt }

// Process implements tacc.Worker.
func (EncryptWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	gcm, err := rewebGCM(task, "encrypt")
	if err != nil {
		return tacc.Blob{}, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return tacc.Blob{}, fmt.Errorf("distiller: encrypt: %w", err)
	}
	sealed := gcm.Seal(nonce, nonce, task.Input.Data, nil)
	blob := tacc.Blob{MIME: "application/x-rewebbed", Data: sealed}
	return blob.WithMeta("origMIME", task.Input.MIME), nil
}

// DecryptWorker is the rewebber's reading side; decrypted pages are
// BASE data cached by the virtual cache.
type DecryptWorker struct{}

// Class implements tacc.Worker.
func (DecryptWorker) Class() string { return ClassDecrypt }

// Process implements tacc.Worker.
func (DecryptWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	gcm, err := rewebGCM(task, "decrypt")
	if err != nil {
		return tacc.Blob{}, err
	}
	data := task.Input.Data
	if len(data) < gcm.NonceSize() {
		return tacc.Blob{}, fmt.Errorf("distiller: decrypt: ciphertext too short")
	}
	plain, err := gcm.Open(nil, data[:gcm.NonceSize()], data[gcm.NonceSize():], nil)
	if err != nil {
		return tacc.Blob{}, fmt.Errorf("distiller: decrypt: %w", err)
	}
	mime := task.Input.Meta["origMIME"]
	if mime == "" {
		mime = media.DetectMIME(plain)
	}
	return tacc.Blob{MIME: mime, Data: plain}, nil
}

// ThinClient produces "simplified markup and scaled-down images ready
// to be spoon-fed to an extremely simple browser client" (§5.1's
// PalmPilot support): markup is stripped and the text fit to the
// client's screen dimensions from the profile.
type ThinClient struct{}

// Class implements tacc.Worker.
func (ThinClient) Class() string { return ClassThin }

// Process implements tacc.Worker.
func (ThinClient) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	cols := task.ParamInt("screenCols", 40)
	rows := task.ParamInt("screenRows", 20)
	if cols < 8 {
		cols = 8
	}
	text := string(media.StripTags(task.Input.Data))
	words := strings.Fields(text)
	var lines []string
	var cur strings.Builder
	for _, w := range words {
		if cur.Len() > 0 && cur.Len()+1+len(w) > cols {
			lines = append(lines, cur.String())
			cur.Reset()
			if len(lines) >= rows {
				break
			}
		}
		if cur.Len() > 0 {
			cur.WriteByte(' ')
		}
		cur.WriteString(w)
	}
	if cur.Len() > 0 && len(lines) < rows {
		lines = append(lines, cur.String())
	}
	out := strings.Join(lines, "\n")
	blob := tacc.Blob{MIME: "text/plain", Data: []byte(out)}
	return blob.WithMeta("lines", strconv.Itoa(len(lines))), nil
}
