package stub

import (
	"testing"

	"repro/internal/supervisor"
)

// BenchmarkWireEncode is the cold path: every encode allocates its own
// buffer. (The steady-state append and the decode are rows of the
// root micro-benchmark table: go test -bench 'Micro/wire' repro.)
func BenchmarkWireEncode(b *testing.B) {
	// The announcement every worker sends once a beat.
	kind, body := supervisor.MsgAnnounce, wireSamples()[supervisor.MsgAnnounce]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBody(kind, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireBeaconEncodeAppend tracks the biggest recurring encode:
// a manager beacon carrying a full worker table.
func BenchmarkWireBeaconEncodeAppend(b *testing.B) {
	beacon := wireSamples()[MsgBeacon].(Beacon)
	for len(beacon.Workers) < 32 {
		beacon.Workers = append(beacon.Workers, beacon.Workers...)
	}
	// Pre-box so the measurement is the codec, not callsite interface
	// conversion (the SAN receives bodies already boxed in `any`).
	var body any = beacon
	buf, err := EncodeBodyAppend(nil, MsgBeacon, body)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = EncodeBodyAppend(buf[:0], MsgBeacon, body)
		if err != nil {
			b.Fatal(err)
		}
	}
}
