package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// The load generator runs in a process of its own. Sharing the
// benchmark process's Go runtime would put the generator's goroutines
// behind the system's garbage collector and distiller bursts on the
// same two Ps: sends would slip their schedule by milliseconds and
// every latency would carry scheduler delay no outside client sees.
// In a separate process the kernel arbitrates, as it would between a
// real client and a real server, and the generator's CPU is accounted
// apart from the system's.
//
// The benchmark process re-executes its own binary with loadgenEnv set
// to a JSON loadSpec. The child regenerates the workload from the seed
// (same seed, same inputs), announces the instant its clock starts,
// runs the interval, and writes the loadResult — two JSON values on its
// standard output.

const loadgenEnv = "SNSBENCH_LOADGEN"

type loadSpec struct {
	Addr     string        `json:"addr"`
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Seconds  float64       `json:"seconds"` // sizes the pre-generated stream
	Dur      time.Duration `json:"dur"`
	StartIdx int           `json:"start_idx"`
}

type loadStarted struct {
	StartUnixNS int64 `json:"start_unix_ns"`
}

// loadgenChild is the generator process's main; it returns the exit code.
func loadgenChild(specJSON string) int {
	var spec loadSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench loadgen: bad spec:", err)
		return 2
	}
	w, err := newWorkload(spec.Workload, spec.Seed, spec.Seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench loadgen:", err)
		return 2
	}
	// The parent holds the other end of standard input open for as
	// long as it lives: end of file means it is gone, however it went,
	// and the generator must not outlive it.
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(3)
	}()
	enc := json.NewEncoder(os.Stdout)
	res := runLoad(context.Background(), spec.Addr, w, newChecker(w), spec.Dur, spec.StartIdx, func(t time.Time) {
		_ = enc.Encode(loadStarted{StartUnixNS: t.UnixNano()})
	})
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench loadgen:", err)
		return 1
	}
	return 0
}

// runLoadChild runs one loaded interval in a generator process and
// waits for it to end. It records this process's CPU at the same
// window boundaries the generator uses.
func runLoadChild(ctx context.Context, spec loadSpec) (*loadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), loadgenEnv+"="+string(specJSON))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// Held open until Wait: its end of file tells the generator that
	// this process is gone (see loadgenChild).
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(out)
	var started loadStarted
	res := &loadResult{}
	err = dec.Decode(&started)
	if err == nil {
		marks := takeMarks(time.Unix(0, started.StartUnixNS), spec.Dur)
		err = dec.Decode(res)
		m := <-marks
		res.SysCPU, res.SysMemMB = m.cpu, m.mem
	}
	if err != nil {
		_ = cmd.Process.Kill() // it may still be running: do not wait out its interval
	}
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return res, nil
}
