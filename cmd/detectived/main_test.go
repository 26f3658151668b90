package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestReloadLoopServicesSIGHUP: a signal delivered while the server is
// up triggers exactly one reload.
func TestReloadLoopServicesSIGHUP(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hup := make(chan os.Signal, 1)
	var reloads atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		reloadLoop(ctx, hup, discardLog(), func() error {
			reloads.Add(1)
			return nil
		})
	}()

	hup <- syscall.SIGHUP
	deadline := time.After(2 * time.Second)
	for reloads.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("SIGHUP not serviced")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reloadLoop did not exit on cancel")
	}
	if got := reloads.Load(); got != 1 {
		t.Fatalf("reloads = %d, want 1", got)
	}
}

// TestReloadLoopIgnoresSIGHUPDuringDrain pins the shutdown race fix: a
// SIGHUP that arrives after the drain has begun (ctx cancelled) must
// not start a reload, even when the signal was already queued before
// the loop observed the cancellation.
func TestReloadLoopIgnoresSIGHUPDuringDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	hup := make(chan os.Signal, 1)
	var reloads atomic.Int64

	// Queue the signal first, then cancel, then start the loop: both
	// select arms are ready on entry, so whichever the runtime picks,
	// the ctx.Err() re-check must keep the reload from running.
	hup <- syscall.SIGHUP
	cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		reloadLoop(ctx, hup, discardLog(), func() error {
			reloads.Add(1)
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reloadLoop did not exit while draining")
	}
	if got := reloads.Load(); got != 0 {
		t.Fatalf("reloads = %d during drain, want 0", got)
	}
}

// TestReloadLoopExitsOnClosedChannel: signal.Stop closing the flow of
// signals must not leave the loop spinning.
func TestReloadLoopExitsOnClosedChannel(t *testing.T) {
	hup := make(chan os.Signal)
	close(hup)
	done := make(chan struct{})
	go func() {
		defer close(done)
		reloadLoop(context.Background(), hup, discardLog(), func() error { return nil })
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("reloadLoop did not exit on closed channel")
	}
}

// TestKBSnapshotV1Exits: a -kb-snapshot file in the retired DKBS v1
// layout stops the daemon at boot with a non-zero exit and the re-pack
// hint. The test re-runs its own binary as the daemon.
func TestKBSnapshotV1Exits(t *testing.T) {
	if snap := os.Getenv("DETECTIVED_V1_SNAPSHOT"); snap != "" {
		os.Args = []string{"detectived", "-kb-snapshot", snap, "-rules", "unused.dr", "-schema", "Name"}
		main()
		return
	}
	snap := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(snap, []byte("DKBS\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestKBSnapshotV1Exits$")
	cmd.Env = append(os.Environ(), "DETECTIVED_V1_SNAPSHOT="+snap)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("daemon with a v1 snapshot: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "re-pack") {
		t.Fatalf("output lacks the re-pack hint:\n%s", out)
	}
}
