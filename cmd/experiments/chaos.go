package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chaos"
)

// runFig9 is the fault-recovery experiment the paper describes in
// prose (§4.3) but never plots: a complete SNS instance under
// background load takes a scripted fault storm — worker crash,
// manager crash, front-end crash, cache partition, loss burst — and
// the harness prints the unified timeline (faults, process exits,
// monitor alerts) plus the before/after capacity comparison.
func runFig9(seed int64) {
	h, err := chaos.New(chaos.Config{
		Seed:           seed,
		FrontEnds:      2,
		DedicatedNodes: 12,
		BeaconInterval: 50 * time.Millisecond,
	})
	if err != nil {
		fmt.Println("chaos start:", err)
		return
	}
	defer h.Stop()
	ctx := context.Background()

	baseline := h.BaselineCapacity(ctx, 40)
	fmt.Printf("pre-fault steady-state capacity: %.0f%% of probes served\n\n", 100*baseline)

	sched := chaos.Schedule{Seed: seed, Events: []chaos.Event{
		{At: 500 * time.Millisecond, Kind: chaos.KillWorker, Slot: 0},
		{At: 1500 * time.Millisecond, Kind: chaos.KillManager},
		{At: 2500 * time.Millisecond, Kind: chaos.KillFrontEnd, Slot: 0},
		{At: 3500 * time.Millisecond, Kind: chaos.PartitionCaches, Dur: 700 * time.Millisecond},
		{At: 4500 * time.Millisecond, Kind: chaos.LossBurst, Dur: 500 * time.Millisecond, P2P: 0.3, Mcast: 0.6},
		{At: 5500 * time.Millisecond, Kind: chaos.HangWorker, Slot: 1, Dur: 600 * time.Millisecond},
	}}
	h.StartLoad(40, 300, 7*time.Second)
	injected := h.Execute(ctx, sched)
	load := h.StopLoad()

	steady := h.AwaitSteady(20 * time.Second)
	after, within := h.RecoveredWithin(ctx, 40, 0.10)

	fmt.Printf("injected %d faults under %d requests of background load "+
		"(%.1f%% served, %d degraded, %d failed; latency p50 %v p99 %v p999 %v)\n\n",
		injected, load.Issued, 100*load.SuccessRate(), load.Degraded, load.Failed,
		load.P50.Round(time.Microsecond), load.P99.Round(time.Microsecond), load.P999.Round(time.Microsecond))
	fmt.Println("timeline (faults, process exits, monitor alerts):")
	fmt.Print(h.Timeline())
	fmt.Printf("\nreturned to steady state: %v\n", steady)
	fmt.Printf("post-fault capacity: %.0f%% (baseline %.0f%%, within 10%%: %v)\n",
		100*after, 100*baseline, within)
	fmt.Println("\npaper §4.3: workers, front ends and the manager can be killed at")
	fmt.Println("random; soft state rebuilt from beacons restores full capacity in")
	fmt.Println("seconds with no recovery protocol anywhere")
}
