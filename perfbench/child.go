package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// childDeadline bounds one session process. Sessions last about a second
// (batch) or a quarter of the run (served); one still running after this
// is hung, and it is killed together with any cluster workers it started.
const childDeadline = 150 * time.Second

// envelope is the one line a session process prints: its record, or why
// it has none.
type envelope struct {
	Error  string          `json:"error,omitempty"`
	Record json.RawMessage `json:"record,omitempty"`
}

// inChild runs one measured session in a fresh process of this binary and
// decodes its record into rec. Each session gets its own process so that
// no session inherits the heap, goroutines or peak resident memory of an
// earlier one: simulated runs leave their kernel's parked goroutines
// behind, which would otherwise grow every later session's memory and GC
// work.
func inChild(cfg config, traced bool, index int, rec any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace, size := "0", "full"
	if traced {
		trace = "1"
	}
	if cfg.tiny {
		size = "tiny"
	}
	cmd := exec.Command(exe, "--child", "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", trace, "--size", size, "--index", strconv.Itoa(index))
	if cfg.workload == "mjpeg-cluster" {
		// The session and its two cluster workers are three busy processes
		// on a few cores. One Go thread each keeps them from oversubscribing
		// the cores, which otherwise made the throughput follow the
		// scheduler: the workers inherit the environment.
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// Its own process group, so a hung session can be killed together
	// with the cluster workers it spawned.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(childDeadline):
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
		return fmt.Errorf("session process exceeded %v and was killed", childDeadline)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var env envelope
	if jerr := json.Unmarshal(lines[len(lines)-1], &env); jerr != nil {
		return fmt.Errorf("session process (%v) printed no record: %v", err, jerr)
	}
	// A failed session still reports what it counted before failing.
	if len(env.Record) > 0 {
		if jerr := json.Unmarshal(env.Record, rec); jerr != nil {
			return jerr
		}
	}
	if env.Error != "" {
		return fmt.Errorf("%s", env.Error)
	}
	if err != nil {
		return fmt.Errorf("session process: %w", err)
	}
	return nil
}

// childMain is the session process: run one session, print its envelope.
func childMain(cfg config, index int) int {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var record any
	var err error
	if cfg.workload == "serve-sse" {
		d := time.Duration(cfg.seconds * float64(time.Second))
		record, err = serveSession(cfg, index, d, rec)
	} else {
		record, err = batchSession(jobFor(cfg), cfg.seed, rec)
	}
	var env envelope
	if err != nil {
		env.Error = err.Error()
	}
	if b, merr := json.Marshal(record); merr != nil {
		env.Error = errors.Join(err, merr).Error()
	} else {
		env.Record = b
	}
	b, _ := json.Marshal(env)
	fmt.Println(string(b))
	if env.Error != "" {
		return 1
	}
	return 0
}

// appendSpans adds one session's spans to all, renumbering IDs so they
// stay unique across sessions.
func appendSpans(all, session []span, run string) []span {
	base := 0
	for _, s := range all {
		base = max(base, s.ID+1)
	}
	for _, s := range session {
		s.Run = run
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		all = append(all, s)
	}
	return all
}
