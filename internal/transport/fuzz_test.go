package transport

import (
	"bytes"
	"testing"

	"repro/internal/san"
)

// FuzzFrameRoundTrip hammers the streaming frame decoder with
// arbitrary byte streams: truncations, corrupted CRCs, concatenated
// batches, hostile length claims. Invariants:
//
//   - the decoder never panics and never allocates a buffer the input
//     cannot back (length claims are bounded before trusting them);
//   - feeding the same stream byte-by-byte yields exactly the frames
//     the whole-stream feed yields (torn-read equivalence);
//   - any frame that decodes successfully re-encodes to bytes that
//     decode to an identical frame (the format is self-consistent).
//
// The corpus is seeded from real captures: a handshake, both forms of
// down frame, and a batch of data/mcast frames carrying genuine
// wire-codec bodies, as a live bridge would produce.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, fr := range sampleFrames(f) {
		f.Add(fr)
	}
	// A full "session capture": hello + batch of three frames in one
	// stream, as the peer's first read might deliver it.
	var batch []byte
	for _, fr := range sampleFrames(f) {
		batch = append(batch, fr...)
	}
	f.Add(batch)
	f.Add(batch[:len(batch)/2]) // torn mid-frame
	corrupted := append([]byte(nil), batch...)
	corrupted[len(corrupted)-2] ^= 0xff // CRC damage on the last frame
	f.Add(corrupted)
	f.Add([]byte{0x41, 0x53, Version, FrameData, 0xff, 0xff, 0xff, 0x7f}) // huge length claim
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Whole-stream decode.
		var whole Decoder
		_, _ = whole.Write(data)
		var frames []Frame
		var wholeErr error
		for {
			fr, ok, err := whole.Next()
			if err != nil {
				wholeErr = err
				break
			}
			if !ok {
				break
			}
			frames = append(frames, copyFrame(fr))
		}

		// The decoder's buffer must never balloon past the input it
		// was fed (plus nothing: Write only appends what it is given).
		if whole.Buffered() > len(data) {
			t.Fatalf("decoder buffered %d bytes from %d input bytes", whole.Buffered(), len(data))
		}

		// Byte-at-a-time decode must agree frame for frame, error for
		// error.
		var torn Decoder
		var tornFrames []Frame
		var tornErr error
		for i := 0; i < len(data) && tornErr == nil; i++ {
			_, _ = torn.Write(data[i : i+1])
			for {
				fr, ok, err := torn.Next()
				if err != nil {
					tornErr = err
					break
				}
				if !ok {
					break
				}
				tornFrames = append(tornFrames, copyFrame(fr))
			}
		}
		if (wholeErr == nil) != (tornErr == nil) {
			t.Fatalf("torn/whole error divergence: whole=%v torn=%v", wholeErr, tornErr)
		}
		if len(frames) != len(tornFrames) {
			t.Fatalf("whole decode found %d frames, torn found %d", len(frames), len(tornFrames))
		}
		for i := range frames {
			if !framesEqual(frames[i], tornFrames[i]) {
				t.Fatalf("frame %d differs between torn and whole decode", i)
			}
		}

		// Valid frames re-encode canonically: the re-encoded bytes
		// decode to an identical frame. (Byte-identity with the fuzzed
		// input is not required — uvarints admit non-minimal forms.)
		for i, fr := range frames {
			re := reencode(fr)
			if re == nil {
				continue // hello frames with unparseable peer lists
			}
			var d2 Decoder
			_, _ = d2.Write(re)
			fr2, ok, err := d2.Next()
			if err != nil || !ok {
				t.Fatalf("frame %d: re-encoded bytes failed to decode: ok=%v err=%v", i, ok, err)
			}
			re2 := reencode(copyFrame(fr2))
			if !bytes.Equal(re, re2) {
				t.Fatalf("frame %d: re-encoding is not a fixed point", i)
			}
		}
	})
}

// reencode rebuilds a frame's canonical byte form from its decoded
// fields; nil when the frame cannot be rebuilt (malformed hello body).
func reencode(f Frame) []byte {
	switch f.Type {
	case FrameData:
		return AppendDataTrace(nil,
			san.Addr{Node: string(f.SrcNode), Proc: string(f.SrcProc)},
			san.Addr{Node: string(f.DstNode), Proc: string(f.DstProc)},
			string(f.Kind), f.CallID, f.Flags&FlagReply, f.Trace, f.Body)
	case FrameMcast:
		return AppendMcast(nil,
			san.Addr{Node: string(f.SrcNode), Proc: string(f.SrcProc)},
			string(f.Group), string(f.Kind), f.Body)
	case FrameHello:
		h, err := f.DecodeHello()
		if err != nil {
			return nil
		}
		return AppendHello(nil, h)
	case FrameDown:
		return AppendDown(nil,
			san.Addr{Node: string(f.SrcNode), Proc: string(f.SrcProc)},
			san.Addr{Node: string(f.DstNode), Proc: string(f.DstProc)},
			f.CallID)
	}
	return nil
}
