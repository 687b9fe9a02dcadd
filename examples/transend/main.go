// TranSend example: the paper's flagship service — a scalable Web
// distillation proxy — exercised end to end: trace-driven load, cache
// warmup, distillation ratios, autoscaling under a burst, and fault
// injection (worker crash masked by BASE fallbacks, manager crash
// masked by cached beacon state).
//
// Run: go run ./examples/transend
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/tacc"
	"repro/internal/trace"
)

func main() {
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)

	sys, err := core.Start(core.Config{
		Seed:           42,
		DedicatedNodes: 6,
		OverflowNodes:  2,
		FrontEnds:      1,
		CacheParts:     2,
		Workers: map[string]int{
			distiller.ClassSGIF: 1,
			distiller.ClassSJPG: 1,
			distiller.ClassHTML: 1,
		},
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		BeaconInterval: 100 * time.Millisecond,
		ReportInterval: 100 * time.Millisecond,
		Policy: manager.Policy{
			SpawnThreshold: 5,
			Damping:        2 * time.Second,
			ReapThreshold:  0.5,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	waitForBeacons(sys)

	ctx := context.Background()
	sys.SetProfile("dialup-user", "quality", "25")
	sys.SetProfile("dialup-user", "scale", "2")

	// --- Distillation on trace-shaped content -----------------------
	fmt.Println("== distillation ==")
	var origBytes, distBytes int
	cfg := trace.DefaultConfig(7)
	cfg.Duration = 30 * time.Second
	records := trace.Generate(cfg)
	served := 0
	for _, rec := range records {
		if rec.MIME != media.MIMESJPG && rec.MIME != media.MIMESGIF {
			continue
		}
		if served >= 20 {
			break
		}
		resp, err := sys.Request(ctx, rec.URL, "dialup-user")
		if err != nil {
			log.Fatalf("request %s: %v", rec.URL, err)
		}
		if resp.Source == "distilled" {
			served++
			orig := atoi(resp.Blob.Meta["origSize"])
			origBytes += orig
			distBytes += resp.Blob.Size()
		}
	}
	if distBytes > 0 {
		fmt.Printf("distilled %d images: %d KB -> %d KB (%.1fx reduction)\n",
			served, origBytes/1024, distBytes/1024, float64(origBytes)/float64(distBytes))
	}

	// --- Cache effectiveness ----------------------------------------
	fmt.Println("== cache ==")
	url := trace.ObjectURL(123, media.MIMESJPG)
	first, _ := sys.Request(ctx, url, "dialup-user")
	second, _ := sys.Request(ctx, url, "dialup-user")
	fmt.Printf("first: %s, repeat: %s\n", first.Source, second.Source)

	// --- Worker crash is masked --------------------------------------
	fmt.Println("== fault tolerance ==")
	victim := findWorker(sys, distiller.ClassSJPG)
	fmt.Printf("crashing %s ...\n", victim)
	if err := sys.Kill(victim); err != nil {
		log.Fatal(err)
	}
	resp, err := sys.Request(ctx, trace.ObjectURL(9999, media.MIMESJPG), "dialup-user")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request during crash served via %q (user still gets bytes)\n", resp.Source)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err = sys.Request(ctx, trace.ObjectURL(31337, media.MIMESJPG), "dialup-user")
		if err == nil && resp.Source == "distilled" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("after recovery: %q (manager respawned the distiller)\n", resp.Source)

	// --- Manager crash is masked --------------------------------------
	old := sys.Manager()
	sys.KillManager()
	resp, err = sys.Request(ctx, trace.ObjectURL(555, media.MIMESGIF), "dialup-user")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("request with dead manager served via %q (stale beacon state)\n", resp.Source)
	for time.Now().Before(time.Now().Add(5 * time.Second)) {
		if sys.Manager() != old {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("front-end watchdog restarted the manager; workers re-registered")

	// --- Monitor view --------------------------------------------------
	fmt.Println("== monitor ==")
	time.Sleep(500 * time.Millisecond)
	table := sys.Mon.RenderTable()
	for _, line := range strings.SplitN(table, "\n", 8) {
		fmt.Println(line)
	}
}

func waitForBeacons(sys *core.System) {
	if !sys.WaitReady(10 * time.Second) {
		log.Fatal("system did not come up")
	}
}

func findWorker(sys *core.System, class string) string {
	for _, fe := range sys.FrontEnds() {
		for _, w := range fe.ManagerStub().Workers(class) {
			return w.ID
		}
	}
	return ""
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return n
		}
		n = n*10 + int(c-'0')
	}
	return n
}
