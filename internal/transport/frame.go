// Package transport carries SAN traffic over real sockets, letting an
// SNS cluster span OS processes (the paper's §3.1 system-area network
// made literal). It has three layers:
//
//   - a versioned frame format — magic, version, frame type, flags,
//     call id, source/destination endpoint ids, message kind, body
//     length, CRC32 — with alloc-free encoders that append onto the
//     SAN's pooled wire bytes (every SAN serializes), and a streaming
//     Decoder that tolerates torn reads and never trusts a length it
//     has not bounded;
//   - a batching writer (Batcher) that coalesces multiple frames into
//     one Write syscall under load, flushing on size or a microsecond
//     deadline, so per-message syscall cost amortizes away at high
//     rates;
//   - a Bridge that implements san.Fabric over TCP or Unix sockets:
//     per-peer connections with a handshake, peer-list gossip for mesh
//     formation, and automatic reconnect. A bridge's id is the node-name
//     prefix its process owns, so a unicast goes to the peer that owns
//     the destination's node (san.Owner) and no route is ever learned.
//
// The data plane is zero-copy end to end. Outbound, bodies at or
// above a small threshold are not copied into the batch buffer:
// AppendDataVec stages only the header and CRC trailer, the body
// rides as its own iovec, and the Batcher flushes via
// net.Buffers/writev, releasing the body's san.Lease after the write.
// Bodies above DefaultChunkBytes stream as chunkFrag-sized chunk
// frames (FlagChunk + a uvarint id/total/offset envelope) so one huge
// body never stalls small frames queued behind it; the receiving
// bridge reassembles the stream, in order, into a single leased buffer
// before injecting it. Inbound,
// NewLeasedDecoder reads into san.Lease-backed buffers and delivery
// views alias them; the decoder recycles a buffer only after every
// consumer releases (see the Lease contract in internal/san —
// releasing is a performance obligation, never a safety one).
//
// Frame layout (all integers little-endian unless uvarint):
//
//	offset size  field
//	0      2     magic 0x5341 ("AS")
//	2      1     version (2)
//	3      1     frame type (hello/data/mcast/down)
//	4      4     length of everything after this prelude, CRC included
//	8      ...   payload (per-type, strings uvarint-length-prefixed)
//	8+n    4     CRC32 (IEEE) over prelude+payload
//
// Data payload: flags(1) [trace(uvarint) when FlagTrace] callID(uvarint)
// srcNode srcProc dstNode dstProc kind body. Mcast payload: srcNode
// srcProc group kind body. Hello payload: id advertise peerCount
// peers.... Down payload: callID(uvarint) goneNode goneProc callerNode
// callerProc.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/san"
)

// Wire constants. A frame's prelude is fixed-size so a streaming
// decoder can learn the full frame length from the first 8 bytes and
// bound every allocation before trusting anything else.
const (
	Magic   uint16 = 0x5341 // "AS" on the wire
	Version byte   = 2

	preludeLen = 8
	crcLen     = 4

	// MaxFramePayload bounds the post-prelude bytes of one frame
	// (CRC included). A peer claiming more is lying or corrupt; the
	// decoder rejects the frame before buffering or allocating for it.
	MaxFramePayload = 8 << 20
)

// Frame types.
const (
	FrameHello byte = 1 // handshake: bridge id (its node prefix), listen addr, known peers
	FrameData  byte = 2 // point-to-point SAN message
	FrameMcast byte = 3 // multicast SAN message
	FrameDown  byte = 4 // an endpoint is not on the sender: closed, or absent for one Call
)

// Data-frame flags.
const (
	FlagReply byte = 1 << 0 // body answers a san Call (CallID echoes)
	// FlagChunk marks the body as one fragment of a larger message:
	// a chunk envelope (uvarint chunk id, total length, offset)
	// followed by the fragment bytes. The receiving bridge reassembles
	// fragments into the original body before injection, so a huge
	// blob streams as many small frames — ordinary traffic interleaves
	// between them instead of stalling behind one giant frame.
	FlagChunk byte = 1 << 1
	// FlagTrace marks a frame that carries a distributed-tracing id
	// (obs.TraceID) as a uvarint between the flags byte and the call
	// id. Untraced frames pay nothing: no flag, no field.
	FlagTrace byte = 1 << 2
)

// Decode errors. A stream that produces any of these has lost frame
// sync and the connection carrying it should be dropped.
var (
	ErrFrameFormat   = errors.New("transport: malformed frame")
	ErrFrameMagic    = errors.New("transport: bad frame magic")
	ErrFrameVersion  = errors.New("transport: unsupported frame version")
	ErrFrameCRC      = errors.New("transport: frame CRC mismatch")
	ErrFrameTooLarge = errors.New("transport: frame exceeds size bound")
)

// Frame is one decoded frame. The byte-slice fields alias the
// Decoder's internal buffer and are valid only until the next call to
// Next or Write; copy anything that must outlive the handling of this
// frame. (Handing Body straight to InjectUnicast/InjectMulticast is
// safe with the Decoder's lease: a delivery whose body aliases the
// bytes retains it.)
type Frame struct {
	Type   byte
	Flags  byte
	CallID uint64
	Trace  uint64 // distributed-tracing id; zero unless FlagTrace

	SrcNode, SrcProc []byte // FrameDown: the endpoint that is not there
	DstNode, DstProc []byte // FrameData; FrameDown: the caller, when CallID is set
	Group            []byte // FrameMcast only
	Kind             []byte
	Body             []byte
}

// appendPrelude reserves the fixed prelude; finishFrame back-patches
// the length and seals the CRC. Between the two, callers append the
// payload with the uvarint/string helpers below.
func appendPrelude(dst []byte, ftype byte) ([]byte, int) {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, ftype, 0, 0, 0, 0)
	return dst, off
}

func finishFrame(dst []byte, off int) []byte {
	payload := len(dst) - off - preludeLen
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(payload+crcLen))
	sum := crc32.ChecksumIEEE(dst[off:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendData appends one point-to-point frame carrying an
// already-encoded message body (the SAN's pooled EncodeBodyAppend
// output) and returns the extended slice. It allocates nothing when
// dst has capacity.
func AppendData(dst []byte, from, to san.Addr, kind string, callID uint64, reply bool, body []byte) []byte {
	flags := byte(0)
	if reply {
		flags |= FlagReply
	}
	return AppendDataTrace(dst, from, to, kind, callID, flags, 0, body)
}

// AppendDataTrace is AppendData with a verbatim flags byte and an
// optional tracing id: a non-zero trace sets FlagTrace and rides the
// frame as a uvarint. Zero traces add nothing to the wire. It is
// AppendDataVec's three pieces laid end to end.
func AppendDataTrace(dst []byte, from, to san.Addr, kind string, callID uint64, flags byte, trace uint64, body []byte) []byte {
	hdr, trailer := AppendDataVec(dst, from, to, kind, callID, flags, trace, nil, body)
	return append(append(hdr, body...), trailer[:]...)
}

// AppendDataVec builds the same wire bytes as AppendData but without
// splicing the body into the staging buffer: it returns the frame's
// header portion (prelude, meta, body length, and the optional prefix
// — the chunk envelope) appended to dst, plus the 4-byte CRC trailer.
// The frame on the wire is hdr ++ body ++ trailer; Batcher.Append
// hands the three pieces to writev so an already-encoded blob goes to
// the socket straight from its lease, copy-free. The logical frame
// body is prefix ++ body. The flags byte is taken verbatim (compose
// FlagReply/FlagChunk yourself); a non-zero trace sets FlagTrace like
// AppendDataTrace.
func AppendDataVec(dst []byte, from, to san.Addr, kind string, callID uint64, flags byte, trace uint64, prefix, body []byte) (hdr []byte, trailer [4]byte) {
	dst, off := appendPrelude(dst, FrameData)
	if trace != 0 {
		flags |= FlagTrace
	}
	dst = append(dst, flags)
	if trace != 0 {
		dst = binary.AppendUvarint(dst, trace)
	}
	dst = binary.AppendUvarint(dst, callID)
	dst = appendString(dst, from.Node)
	dst = appendString(dst, from.Proc)
	dst = appendString(dst, to.Node)
	dst = appendString(dst, to.Proc)
	dst = appendString(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(prefix)+len(body)))
	dst = append(dst, prefix...)
	payload := len(dst) - off - preludeLen + len(body)
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(payload+crcLen))
	sum := crc32.ChecksumIEEE(dst[off:])
	sum = crc32.Update(sum, crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(trailer[:], sum)
	return dst, trailer
}

// appendChunkEnv appends the chunk envelope riding at the front of a
// FlagChunk frame's body: fragment stream id, total reassembled
// length, this fragment's offset.
func appendChunkEnv(dst []byte, id uint64, total, offset int) []byte {
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(total))
	return binary.AppendUvarint(dst, uint64(offset))
}

// ParseChunk splits a FlagChunk frame body into its envelope and
// fragment. The fragment aliases body.
func ParseChunk(body []byte) (id uint64, total, offset int, frag []byte, err error) {
	r := payloadReader{buf: body}
	id = r.uvarint()
	t := r.uvarint()
	o := r.uvarint()
	if r.err != nil || t > MaxChunkBody || o > t || uint64(len(body)-r.pos) > t-o {
		return 0, 0, 0, nil, fmt.Errorf("%w: chunk envelope", ErrFrameFormat)
	}
	return id, int(t), int(o), body[r.pos:], nil
}

// MaxChunkBody bounds the reassembled length a chunk stream may claim,
// the chunked analogue of MaxFramePayload. One cap for every caller:
// senders refuse to chunk anything larger, receivers refuse to
// allocate for a claim above it.
const MaxChunkBody = 64 << 20

// AppendMcast appends one multicast frame (group-addressed, no flags
// or call id — multicasts are never replies).
func AppendMcast(dst []byte, from san.Addr, group, kind string, body []byte) []byte {
	dst, off := appendPrelude(dst, FrameMcast)
	dst = appendString(dst, from.Node)
	dst = appendString(dst, from.Proc)
	dst = appendString(dst, group)
	dst = appendString(dst, kind)
	dst = appendBytes(dst, body)
	return finishFrame(dst, off)
}

// Hello is the handshake payload each side sends immediately after a
// connection opens: who it is (the node-name prefix it owns), where it
// can be dialed, and which other peers it knows — the gossip that lets
// a joining process complete the mesh from one seed address.
type Hello struct {
	ID        string
	Advertise string   // canonical dialable listen address
	Peers     []string // advertised addresses of other known peers
}

// AppendHello appends one handshake frame.
func AppendHello(dst []byte, h Hello) []byte {
	dst, off := appendPrelude(dst, FrameHello)
	dst = appendString(dst, h.ID)
	dst = appendString(dst, h.Advertise)
	dst = binary.AppendUvarint(dst, uint64(len(h.Peers)))
	for _, p := range h.Peers {
		dst = appendString(dst, p)
	}
	return finishFrame(dst, off)
}

// DecodeHello materializes a Hello from a decoded FrameHello (the
// hello fields ride in the payload reader's slots: ID in SrcNode,
// Advertise in SrcProc, peers packed in Body). Callers get copies —
// hellos are rare and long-lived, unlike data frames.
func (f *Frame) DecodeHello() (Hello, error) {
	if f.Type != FrameHello {
		return Hello{}, fmt.Errorf("%w: not a hello frame", ErrFrameFormat)
	}
	h := Hello{ID: string(f.SrcNode), Advertise: string(f.SrcProc)}
	r := payloadReader{buf: f.Body}
	n := r.sliceLen()
	for i := 0; i < n && r.err == nil; i++ {
		h.Peers = append(h.Peers, string(r.bytes()))
	}
	if r.err != nil || r.pos != len(r.buf) {
		return Hello{}, fmt.Errorf("%w: hello peer list", ErrFrameFormat)
	}
	return h, nil
}

// AppendDown appends one down frame: gone is not registered on the
// sender. With callID zero it closed there, and every Call awaiting it
// ends (san.Network.Unreachable); otherwise the sender owns gone's node
// and found no endpoint when caller's request callID arrived, and that
// one Call ends (san.Network.UnreachableCall). Down frames ride the same
// ordered stream as data frames, so one never overtakes a reply sent
// before it.
func AppendDown(dst []byte, gone, caller san.Addr, callID uint64) []byte {
	dst, off := appendPrelude(dst, FrameDown)
	dst = binary.AppendUvarint(dst, callID)
	dst = appendString(dst, gone.Node)
	dst = appendString(dst, gone.Proc)
	dst = appendString(dst, caller.Node)
	dst = appendString(dst, caller.Proc)
	return finishFrame(dst, off)
}

// Decoder incrementally parses a byte stream into frames. Feed raw
// reads with Write, then drain complete frames with Next; a torn read
// simply leaves Next reporting "no frame yet" until the remainder
// arrives. The internal buffer is bounded: a frame's claimed length is
// validated against MaxFramePayload as soon as the prelude is visible,
// before any of the payload is awaited.
//
// A leased decoder (NewLeasedDecoder) backs its buffer with a
// refcounted san.Lease so frame slices can outlive the next Write:
// a consumer that retains the current Lease() keeps the buffer pinned,
// and the decoder swaps to a fresh lease (carrying over the unconsumed
// tail) instead of scribbling over live views. The old buffer recycles
// when the last view releases — the receive half of the zero-copy data
// plane.
type Decoder struct {
	buf []byte
	r   int // consumed prefix

	frames uint64

	leased bool
	lease  *san.Lease
}

// leasedDecoderBuf sizes fresh receive leases: big enough to hold a
// full socket read plus a partial frame without immediate growth.
const leasedDecoderBuf = 64 << 10

// NewLeasedDecoder returns a decoder whose buffer lives in refcounted
// leases (see Decoder docs). The zero-valued Decoder remains the plain
// copying variant.
func NewLeasedDecoder() *Decoder { return &Decoder{leased: true} }

// Lease returns the lease backing the decoder's current buffer (nil
// before the first Write, or on an unleased decoder). Frames returned
// by Next alias this lease's buffer; retain it to keep them valid past
// the next Write.
func (d *Decoder) Lease() *san.Lease { return d.lease }

// Close drops the decoder's own reference to its buffer lease (no-op
// on a plain decoder). Call it when the stream ends; views retained by
// consumers stay valid — they hold their own references.
func (d *Decoder) Close() {
	if d.lease != nil {
		d.lease.Release()
		d.lease = nil
		d.buf = nil
		d.r = 0
	}
}

// Write feeds stream bytes into the decoder. It never fails; the
// error return exists to satisfy io.Writer so a decoder can sit
// directly under an io.Copy or TeeReader in tests.
func (d *Decoder) Write(p []byte) (int, error) {
	if d.leased {
		d.writeLeased(p)
		return len(p), nil
	}
	// Compact lazily: only when the dead prefix dominates the buffer.
	if d.r > 0 && (d.r >= len(d.buf) || d.r > 4096) {
		d.buf = append(d.buf[:0], d.buf[d.r:]...)
		d.r = 0
	}
	d.buf = append(d.buf, p...)
	return len(p), nil
}

// writeLeased is Write for the leased decoder. The invariant: d.buf
// always starts at index 0 of the current lease's array, so cap(d.buf)
// is the lease capacity and in-place appends never escape it. Only the
// decoder's goroutine mutates the buffer, and only after observing
// Refs()==1 — the atomic refcount orders consumers' last reads before
// the reuse, so recycling can never race a live view.
func (d *Decoder) writeLeased(p []byte) {
	if l := d.lease; l != nil && l.Refs() == 1 {
		if len(d.buf)+len(p) <= cap(d.buf) {
			d.buf = append(d.buf, p...)
			return
		}
		// Sole owner but out of room at the end: compact the
		// unconsumed tail down to the front if that makes p fit.
		tail := len(d.buf) - d.r
		if tail+len(p) <= cap(d.buf) {
			copy(d.buf, d.buf[d.r:])
			d.buf = append(d.buf[:tail], p...)
			d.r = 0
			return
		}
	}
	// Views are live on the current buffer (or it cannot hold the new
	// bytes): swap to a fresh lease carrying only the unconsumed tail.
	// The old buffer recycles when its last view releases.
	need := len(d.buf) - d.r + len(p)
	size := need
	if size < leasedDecoderBuf {
		size = leasedDecoderBuf
	}
	nl := san.NewLease(size)
	nb := append(nl.Bytes(), d.buf[d.r:]...)
	nb = append(nb, p...)
	if d.lease != nil {
		d.lease.Release()
	}
	d.lease = nl
	d.buf = nb
	d.r = 0
}

// Buffered returns the number of unconsumed bytes held.
func (d *Decoder) Buffered() int { return len(d.buf) - d.r }

// Frames returns the count of frames decoded so far.
func (d *Decoder) Frames() uint64 { return d.frames }

// Next parses the next complete frame. ok=false with a nil error
// means more bytes are needed; a non-nil error means the stream lost
// frame sync (bad magic, corrupt CRC, oversized claim) and must be
// abandoned — there is no resynchronization in a TCP-carried stream.
func (d *Decoder) Next() (Frame, bool, error) {
	avail := d.buf[d.r:]
	if len(avail) < preludeLen {
		return Frame{}, false, nil
	}
	if binary.LittleEndian.Uint16(avail) != Magic {
		return Frame{}, false, ErrFrameMagic
	}
	if avail[2] != Version {
		return Frame{}, false, ErrFrameVersion
	}
	ftype := avail[3]
	length := binary.LittleEndian.Uint32(avail[4:])
	if length > MaxFramePayload {
		return Frame{}, false, ErrFrameTooLarge
	}
	if length < crcLen {
		return Frame{}, false, fmt.Errorf("%w: frame length %d below CRC size", ErrFrameFormat, length)
	}
	total := preludeLen + int(length)
	if len(avail) < total {
		return Frame{}, false, nil
	}
	raw := avail[:total]
	want := binary.LittleEndian.Uint32(raw[total-crcLen:])
	if crc32.ChecksumIEEE(raw[:total-crcLen]) != want {
		return Frame{}, false, ErrFrameCRC
	}
	f, err := parsePayload(ftype, raw[preludeLen:total-crcLen])
	if err != nil {
		return Frame{}, false, err
	}
	d.r += total
	d.frames++
	return f, true, nil
}

// parsePayload decodes the per-type payload. All returned slices alias
// payload.
func parsePayload(ftype byte, payload []byte) (Frame, error) {
	f := Frame{Type: ftype}
	r := payloadReader{buf: payload}
	switch ftype {
	case FrameData:
		f.Flags = r.byte()
		if f.Flags&FlagTrace != 0 {
			f.Trace = r.uvarint()
			if f.Trace == 0 {
				return Frame{}, fmt.Errorf("%w: FlagTrace with zero trace id", ErrFrameFormat)
			}
		}
		f.CallID = r.uvarint()
		f.SrcNode = r.bytes()
		f.SrcProc = r.bytes()
		f.DstNode = r.bytes()
		f.DstProc = r.bytes()
		f.Kind = r.bytes()
		f.Body = r.bytes()
	case FrameMcast:
		f.SrcNode = r.bytes()
		f.SrcProc = r.bytes()
		f.Group = r.bytes()
		f.Kind = r.bytes()
		f.Body = r.bytes()
	case FrameHello:
		f.SrcNode = r.bytes() // hello ID
		f.SrcProc = r.bytes() // hello advertise addr
		f.Body = r.rest()     // packed peer list, parsed by DecodeHello
	case FrameDown:
		f.CallID = r.uvarint()
		f.SrcNode = r.bytes()
		f.SrcProc = r.bytes()
		f.DstNode = r.bytes()
		f.DstProc = r.bytes()
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrFrameFormat, ftype)
	}
	if r.err != nil {
		return Frame{}, r.err
	}
	if ftype != FrameHello && r.pos != len(r.buf) {
		return Frame{}, fmt.Errorf("%w: %d trailing payload bytes", ErrFrameFormat, len(r.buf)-r.pos)
	}
	return f, nil
}

// payloadReader parses with sticky errors and zero copies: bytes()
// returns subslices of the input.
type payloadReader struct {
	buf []byte
	pos int
	err error
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = ErrFrameFormat
	}
}

func (r *payloadReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *payloadReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail()
		return nil
	}
	out := r.buf[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return out
}

func (r *payloadReader) rest() []byte {
	out := r.buf[r.pos:]
	r.pos = len(r.buf)
	return out
}

// sliceLen reads an element count bounded by the bytes remaining (each
// element needs at least one), so a hostile count cannot force an
// allocation the input could never back.
func (r *payloadReader) sliceLen() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.pos)+1 {
		r.fail()
		return 0
	}
	return int(n)
}
