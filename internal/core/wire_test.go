package core

import (
	"testing"

	"repro/internal/media"
	"repro/internal/trace"
)

// TestWireModeEndToEnd boots the full TranSend stack as Start assembles
// it and drives a real distillation request: every message on
// the path — beacons, registrations, load reports, task dispatch,
// cache get/put/inject, heartbeats, monitor reports — crosses the SAN
// as codec bytes. WireErrors == 0 proves every live message kind has a
// wire layout (nothing silently bypasses or fails serialization).
func TestWireModeEndToEnd(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)

	url := trace.ObjectURL(42, media.MIMESJPG)
	resp := mustRequest(t, s, url, "user1")
	if resp.Source != "distilled" {
		t.Fatalf("source = %s, want distilled", resp.Source)
	}
	resp2 := mustRequest(t, s, url, "user1")
	if resp2.Source != "cache-distilled" {
		t.Fatalf("second source = %s, want cache-distilled", resp2.Source)
	}

	st := s.Net.Stats()
	if st.WireEncodes == 0 || st.WireDecodes == 0 {
		t.Fatalf("codec never ran: %+v", st)
	}
	if st.WireErrors != 0 {
		t.Fatalf("%d messages failed serialization (missing body layout?)", st.WireErrors)
	}
	if st.Bytes == 0 {
		t.Fatal("no wire bytes accounted")
	}
}
