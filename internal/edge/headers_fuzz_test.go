package edge

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzRequestHeaders fuzzes the front door's header parsing over
// (X-Deadline-Ns, X-Trace-Id) strings: it never panics; an absent or
// malformed deadline gives now plus the fallback, a well-formed one its
// own instant; and what the edge writes — a formatted deadline, an
// obs.TraceID's String — reads back as the value written.
func FuzzRequestHeaders(f *testing.F) {
	f.Add("", "")
	f.Add("junk", "junk")
	f.Add("1", "00000000000000ff")
	f.Add(strconv.FormatInt(time.Unix(1700000000, 5).UnixNano(), 10), obs.TraceID(0xdeadbeef).String())
	f.Add("-9223372036854775808", "ffffffffffffffff")
	f.Add("9223372036854775808", "10000000000000000")
	f.Add("+42", "0x1f")
	f.Add(" 42", "FF")
	const fallback = time.Minute

	f.Fuzz(func(t *testing.T, deadline, trace string) {
		h := http.Header{}
		h.Set(HeaderDeadline, deadline)
		h.Set(HeaderTraceID, trace)
		before := time.Now()
		gotDL, gotTrace := requestHeaders(h, fallback)
		after := time.Now()

		if ns, err := strconv.ParseInt(h.Get(HeaderDeadline), 10, 64); err == nil {
			if !gotDL.Equal(time.Unix(0, ns)) {
				t.Fatalf("deadline %q read as %v", deadline, gotDL)
			}
		} else if gotDL.Before(before.Add(fallback)) || gotDL.After(after.Add(fallback)) {
			t.Fatalf("malformed deadline %q gave %v, want now+%v", deadline, gotDL, fallback)
		}
		if id, err := obs.ParseTraceID(h.Get(HeaderTraceID)); (err == nil && id != gotTrace) || (err != nil && gotTrace != 0) {
			t.Fatalf("trace %q read as %v", trace, gotTrace)
		}

		// Round trip: the headers a hop writes read back as written.
		out := http.Header{}
		out.Set(HeaderDeadline, strconv.FormatInt(gotDL.UnixNano(), 10))
		out.Set(HeaderTraceID, gotTrace.String())
		againDL, againTrace := requestHeaders(out, fallback)
		if againDL.UnixNano() != gotDL.UnixNano() || againTrace != gotTrace {
			t.Fatalf("round trip %v/%v -> %v/%v", gotDL, gotTrace, againDL, againTrace)
		}
	})
}
