package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// ActionKind enumerates the faults a schedule can inject.
type ActionKind string

// The fault vocabulary. Process kills are the paper's §4.3 scenarios;
// the network and gray-failure actions extend them to the failure
// modes timeouts must catch without a crash to observe.
const (
	// KillWorker crashes a live worker (no deregistration — the
	// manager must infer the loss by timeout, §3.1.3).
	KillWorker ActionKind = "kill-worker"
	// KillManager crashes the acting primary manager replica. With
	// replicas configured a standby wins the election and beacons the
	// next epoch; single-manager systems respawn it, and workers
	// re-register on the new regime's beacons either way.
	KillManager ActionKind = "kill-manager"
	// KillFrontEnd crashes a front end; the manager's process-peer
	// duty restarts it.
	KillFrontEnd ActionKind = "kill-frontend"
	// KillCache crashes a cache service (no goodbye — heartbeat
	// silence is the only evidence); the manager's cache process-peer
	// duty restarts it empty, and front ends fall back to origin
	// fetches in the meantime.
	KillCache ActionKind = "kill-cache"
	// PartitionCaches splits every cache node away from the rest of
	// the SAN for Dur; front ends must fall back to origin fetches
	// and re-absorb the cache on heal.
	PartitionCaches ActionKind = "partition-caches"
	// LossBurst raises point-to-point/multicast loss to P2P/Mcast
	// for Dur (the §4.6 saturation analogue).
	LossBurst ActionKind = "loss-burst"
	// HangWorker freezes a worker's task loop for Dur: it stays
	// registered and keeps reporting (growing) load but completes
	// nothing.
	HangWorker ActionKind = "hang-worker"
	// SlowWorker adds Delay to every task on one worker for Dur.
	SlowWorker ActionKind = "slow-worker"
	// SeverBridge cuts every TCP peering of the system's transport
	// bridge for Dur — the multi-process analogue of PartitionCaches'
	// in-SAN PartitionFor. Dur <= 0 severs without scheduling a heal;
	// the bridge redials when the window (if any) passes. No-op on
	// single-process systems (recorded as "no-bridge").
	SeverBridge ActionKind = "sever-bridge"
	// Heal removes all partitions immediately.
	Heal ActionKind = "heal"
)

// Event is one scheduled fault. Targets are chosen by Slot — a
// deterministic index into the sorted live set at execution time —
// rather than by concrete process id, so a schedule is meaningful
// against any system and reproducible across runs.
type Event struct {
	// At is the offset from schedule start.
	At time.Duration
	// Kind selects the action.
	Kind ActionKind
	// Slot picks the target among eligible candidates (modulo the
	// live count). Ignored by non-targeted actions.
	Slot int
	// Dur bounds timed impairments (partitions, bursts, hangs,
	// slowdowns).
	Dur time.Duration
	// P2P and Mcast are the LossBurst probabilities.
	P2P, Mcast float64
	// Delay is the SlowWorker per-task penalty.
	Delay time.Duration
}

// String renders the deterministic identity of the event — exactly
// the fields two runs of the same seed must agree on.
func (e Event) String() string {
	return fmt.Sprintf("%s@%s slot=%d dur=%s p2p=%.2f mcast=%.2f delay=%s",
		e.Kind, e.At, e.Slot, e.Dur, e.P2P, e.Mcast, e.Delay)
}

// Schedule is a seeded, ordered fault script.
type Schedule struct {
	Seed   int64
	Events []Event
}

// SoakOptions tunes RandomSoak.
type SoakOptions struct {
	// Kills is the number of fault events to generate (default 3).
	Kills int
	// Every is the spacing between events (default 1s).
	Every time.Duration
	// Kinds is the action pool to draw from (default: the three
	// §4.3 process kills).
	Kinds []ActionKind
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Kills <= 0 {
		o.Kills = 3
	}
	if o.Every <= 0 {
		o.Every = time.Second
	}
	if len(o.Kinds) == 0 {
		o.Kinds = []ActionKind{KillWorker, KillManager, KillFrontEnd}
	}
	return o
}

// RandomSoak builds the "kill anything every T seconds" schedule
// (§4.3's closing experiment) as a pure function of the seed: the
// same seed always yields the identical event list.
func RandomSoak(seed int64, opts SoakOptions) Schedule {
	opts = opts.withDefaults()
	impairDur := opts.Every / 2 // timed impairments end before the next event
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}
	for i := 0; i < opts.Kills; i++ {
		kind := opts.Kinds[rng.Intn(len(opts.Kinds))]
		ev := Event{
			At:   time.Duration(i+1) * opts.Every,
			Kind: kind,
			Slot: rng.Intn(1 << 16),
		}
		switch kind {
		case PartitionCaches, HangWorker:
			ev.Dur = impairDur
		case SlowWorker:
			ev.Dur = impairDur
			ev.Delay = time.Duration(1+rng.Intn(20)) * time.Millisecond
		case LossBurst:
			ev.Dur = impairDur
			ev.P2P = 0.2 + 0.6*rng.Float64()
			ev.Mcast = 0.2 + 0.6*rng.Float64()
		}
		s.Events = append(s.Events, ev)
	}
	return s
}
