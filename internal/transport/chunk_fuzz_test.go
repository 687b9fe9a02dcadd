package transport

import (
	"testing"

	"repro/internal/san"
)

// Kind "blob" carries a []byte body as itself and decodes a view of it,
// so a delivery holds its reassembly lease exactly as a real consumer
// does.
func init() {
	san.RegisterKind("blob", func(w san.Writer, body []byte) (san.Writer, error) { return append(w, body...), nil },
		func(data []byte) (any, bool, error) { return data, true, nil })
}

// senderByte is byte pos of stream id's body as its sender wrote it.
func senderByte(id uint64, pos int) byte { return byte(id*31 + uint64(pos)*7 + 1) }

// FuzzChunkReassembly feeds one connection's reassembly table arbitrary
// FlagChunk fragment sequences: more streams live at once than
// maxChunkBuilds, totals that contradict a stream's first fragment, and
// offsets that skip, repeat or overlap. Each op is four input bytes —
// stream id, total/4, then the fragment's start and end as fractions of
// the total — and each fragment carries its sender's bytes for its
// range. Invariants:
//
//   - nothing panics;
//   - every injected body has the length its stream declared and its
//     sender's byte at every offset (no stream completes with a hole);
//   - once the connection closes and the consumer has released what it
//     was handed, every reassembly lease is back to zero references.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte{1, 2, 0, 128, 1, 2, 128, 255}) // one stream, two halves
	f.Add([]byte{1, 2, 0, 255, 1, 2, 0, 255})   // a duplicate after completion
	f.Add([]byte{1, 4, 0, 128, 1, 4, 0, 128})   // a repeat that adds up to the total
	f.Add([]byte{1, 4, 0, 128, 1, 4, 64, 255})  // an overlap
	f.Add([]byte{1, 4, 0, 128, 1, 8, 128, 255}) // a contradictory total
	f.Add([]byte{1, 0, 0, 0})                   // an empty body
	var interleaved []byte
	for id := byte(0); id < maxChunkBuilds+8; id++ {
		interleaved = append(interleaved, id, 2, 0, 128)
	}
	for id := byte(0); id < maxChunkBuilds+8; id++ {
		interleaved = append(interleaved, id, 2, 128, 255)
	}
	f.Add(interleaved)

	net := san.NewNetwork(1)
	defer net.Close()
	from, to := san.Addr{Node: "x", Proc: "src"}, san.Addr{Node: "y", Proc: "dst"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		dst := net.Endpoint(to, 1) // one fragment completes at most one stream, consumed at once
		defer dst.Close()
		b := &Bridge{net: net}
		asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
		declared := map[uint64]int{}
		leases := map[*san.Lease]bool{}
		consume := func() {
			for len(dst.Inbox()) > 0 {
				msg := <-dst.Inbox()
				id := msg.CallID
				body, _ := msg.Body.([]byte)
				if len(body) != declared[id] {
					t.Fatalf("stream %d injected %d bytes, declared %d", id, len(body), declared[id])
				}
				for i, c := range body {
					if c != senderByte(id, i) {
						t.Fatalf("stream %d byte %d is %#x, its sender wrote %#x", id, i, c, senderByte(id, i))
					}
				}
				if msg.Lease != nil {
					leases[msg.Lease] = true
				}
				msg.Release()
			}
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			id, total := uint64(ops[0]), 4*int(ops[1])
			start := total * int(ops[2]) / 255
			end := start + (total-start)*int(ops[3])/255
			frag := make([]byte, end-start)
			for i := range frag {
				frag[i] = senderByte(id, start+i)
			}
			if asm.builds[id] == nil && start == 0 {
				declared[id] = total // this fragment seeds the stream's build
			}
			body := append(appendChunkEnv(nil, id, total, start), frag...)
			b.handleChunk(asm, Frame{Type: FrameData, Flags: FlagChunk, CallID: id, Body: body}, from, to, "blob")
			if cb := asm.builds[id]; cb != nil {
				leases[cb.lease] = true
			}
			consume()
		}
		asm.releaseAll() // what the read loop does when its connection ends
		consume()
		for l := range leases {
			if refs := l.Refs(); refs != 0 {
				t.Fatalf("a reassembly lease holds %d references after close", refs)
			}
		}
	})
}
