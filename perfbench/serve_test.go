package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// shortServeParams is the shortest form of the serve workload: one
// measured miss batch after the warm-up, one reboot, and a few hundred
// milliseconds of open-loop load.
func shortServeParams(t *testing.T) serveParams {
	return serveParams{
		seed: 7, tmpdir: t.TempDir(), shards: 2, clients: 2, batches: 1, reboots: 1,
		hitRate: 200, hitDur: 200 * time.Millisecond, twinEvery: 10,
		tailLimit: 50 * time.Millisecond, ladder: []float64{200, 400}, stepDur: 100 * time.Millisecond,
	}
}

// assertClean checks that a finished run left nothing behind: its
// temporary directory is gone, nothing listens on any address it served
// on, and the goroutines it started have returned.
func assertClean(t *testing.T, r *serveRun, baseline int) {
	t.Helper()
	left, err := os.ReadDir(r.p.tmpdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind %s", e.Name())
	}
	if len(r.urls) == 0 {
		t.Error("the run never listened")
	}
	for _, u := range r.urls {
		if c, err := net.DialTimeout("tcp", strings.TrimPrefix(u, "http://"), time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", u)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines left, %d before the run:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runShort runs the short serve workload the way runServe does, keeping
// the run for inspection.
func runShort(ctx context.Context, t *testing.T) (*serveRun, error) {
	r := newServeRun(shortServeParams(t))
	defer r.close()
	if err := r.start(); err != nil {
		return r, err
	}
	return r, r.run(ctx)
}

func TestServeShortSucceedsAndCleansUp(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r, err := runShort(context.Background(), t)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "wall_s", "cpu_s", "sim_accesses_per_cpu_ms", "peak_rss_mb",
		"miss_p50_ms", "hit_p50_ms", "twin_p50_ms", "hit_cpu_us_per_req"} {
		if r.res.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.res.values[name])
		}
	}
	for _, p := range r.res.phases {
		if p.failed != 0 {
			t.Errorf("phase %s: %d of %d operations failed", p.name, p.failed, p.attempted)
		}
	}
	assertClean(t, r, baseline)
}

func TestServeCleansUpOnSignal(t *testing.T) {
	// os/signal starts one process-wide goroutine on first use, which
	// lives on; start it before counting.
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR1)
	signal.Stop(c)
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			// The same handling main installs; the signal cancels the
			// run instead of killing the test binary.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			timer := time.AfterFunc(300*time.Millisecond, func() { _ = syscall.Kill(os.Getpid(), sig) })
			defer timer.Stop()
			r, err := runShort(ctx, t)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run ended with %v, want it cancelled by %v", err, sig)
			}
			stop()
			assertClean(t, r, baseline)
		})
	}
}

func TestServeCleansUpOnTimeout(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	r, err := runShort(ctx, t)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run ended with %v, want its deadline", err)
	}
	assertClean(t, r, baseline)
}

func TestServeCleansUpOnFailedCheck(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx := context.Background()
	r := newServeRun(shortServeParams(t))
	err := r.start()
	if err == nil {
		err = r.missPhase(ctx)
	}
	if err == nil {
		err = r.restartPhase(ctx)
	}
	if err != nil {
		r.close()
		t.Fatal(err)
	}
	// Every hit now expects a body one byte off what the fleet serves.
	for _, i := range r.ok {
		for _, b := range r.bodies[i] {
			b[len(b)/2]++
		}
	}
	err = r.hitPhase(ctx)
	r.close()
	if !errors.Is(err, errCheck) {
		t.Fatalf("hit phase against corrupted bodies ended with %v, want a failed check", err)
	}
	assertClean(t, r, baseline)
}
