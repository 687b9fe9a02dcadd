package frontend

import (
	"context"
	"errors"

	"repro/internal/san"
)

// The front end's service interface on the SAN. The edge forwards each
// client request as one MsgRequest Call to the replica it picked, and
// the front end answers with one MsgReply: every internal component
// meets on the SAN, and only the edge speaks HTTP (§2.1, §3.1.1).
const (
	MsgRequest = "fe.request" // edge -> front end (Call): RequestMsg
	MsgReply   = "fe.reply"   // front end -> edge (reply): ReplyMsg
)

// RequestMsg is MsgRequest's body: a client request and its caller's
// deadline (unix nanoseconds, zero for none), carried in the body as
// stub.TaskMsg's is because a Message's deadline does not cross a process
// boundary. The trace id rides the frame, as on every Call.
type RequestMsg struct {
	Request
	Deadline int64
}

// Refusal classes: why a front end answered without a response.
const (
	RefusedDisabled   = "disabled"   // draining to stop (ErrDisabled)
	RefusedOverloaded = "overloaded" // shed at admission (ErrOverloaded)
	RefusedDeadline   = "deadline"   // the request's deadline passed
	RefusedError      = "error"      // any other failure
)

// ReplyMsg is MsgReply's body: a response, or a refusal's class with its
// error text in Data. Data aliases the received buffer; the trace id
// rides the frame.
type ReplyMsg struct {
	Refusal  string
	MIME     string
	Source   string
	Degraded bool
	Data     []byte
}

// Prompt makes a reply leave at once, not at the fabric's next flush
// tick: the edge's client is blocked on it.
func (ReplyMsg) Prompt() {}

// Reply is Do's outcome as its answer: resp's fields, or err's refusal
// class (ctx is the request's) and text. Data aliases resp's body.
func Reply(ctx context.Context, resp Response, err error) ReplyMsg {
	if err == nil {
		return ReplyMsg{MIME: resp.Blob.MIME, Source: resp.Source, Degraded: resp.Degraded, Data: resp.Blob.Data}
	}
	class := RefusedError
	switch {
	case errors.Is(err, ErrDisabled):
		class = RefusedDisabled
	case errors.Is(err, ErrOverloaded):
		class = RefusedOverloaded
	case ctx.Err() != nil:
		class = RefusedDeadline
	}
	return ReplyMsg{Refusal: class, Data: []byte(err.Error())}
}

// The layouts of the front end's kinds: rows of san's kind table.
func init() {
	san.RegisterKind(MsgRequest, appendRequest, decodeRequest)
	san.RegisterKind(MsgReply, appendReply, decodeReply)
}

func appendRequest(w san.Writer, m RequestMsg) (san.Writer, error) {
	w.Str(m.URL)
	w.Str(m.User)
	w.Bool(m.Raw)
	w.Varint(m.Deadline)
	return w, nil
}

func decodeRequest(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(RequestMsg{Request: Request{URL: r.Str(), User: r.Str(), Raw: r.Bool()}, Deadline: r.Varint()})
}

func appendReply(w san.Writer, m ReplyMsg) (san.Writer, error) {
	w.Str(m.Refusal)
	w.Str(m.MIME)
	w.Str(m.Source)
	w.Bool(m.Degraded)
	w.Bytes(m.Data)
	return w, nil
}

func decodeReply(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(ReplyMsg{Refusal: r.Str(), MIME: r.Str(), Source: r.Str(), Degraded: r.Bool(), Data: r.Bytes()})
}
