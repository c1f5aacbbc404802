package health

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// clock is a manually advanced test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testCfg(c *clock) Config {
	return Config{Threshold: 3, BaseBackoff: time.Second, MaxBackoff: 8 * time.Second, NoJitter: true, Now: c.now}
}

var errDisk = errors.New("boom: input/output error")

func TestBreakerTripsAfterThresholdConsecutiveFailures(t *testing.T) {
	ck := newClock()
	b := NewBreaker("cache", false, testCfg(ck))

	// Two failures, then a success: the streak resets, no trip.
	b.Record(errDisk)
	b.Record(errDisk)
	b.Record(nil)
	for i := 0; i < 2; i++ {
		b.Record(errDisk)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after interleaved successes = %v, want closed", got)
	}
	// The third consecutive failure trips it.
	b.Record(errDisk)
	if got := b.State(); got != Open {
		t.Fatalf("state after %d consecutive failures = %v, want open", 3, got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed an operation before the backoff expired")
	}
	v := b.View()
	if v.Trips != 1 || v.Rejections != 1 {
		t.Errorf("view = %+v, want trips=1 rejections=1", v)
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	ck := newClock()
	b := NewBreaker("ckpt", false, testCfg(ck))
	for i := 0; i < 3; i++ {
		b.Record(errDisk)
	}
	if b.Allow() {
		t.Fatal("probe admitted before backoff")
	}
	ck.advance(time.Second) // backoff expired
	if !b.Allow() {
		t.Fatal("probe not admitted after backoff")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second probe admitted immediately")
	}
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected an operation")
	}
	if v := b.View(); v.Recoveries != 1 || v.Probes != 1 {
		t.Errorf("view = %+v, want recoveries=1 probes=1", v)
	}
}

func TestBreakerFailedProbeDoublesBackoffUpToCap(t *testing.T) {
	ck := newClock()
	b := NewBreaker("ledger", false, testCfg(ck))
	for i := 0; i < 3; i++ {
		b.Record(errDisk)
	}
	// Backoffs double 1s → 2s → 4s → 8s → 8s (cap).
	for _, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second} {
		// Just before the window expires the probe is rejected.
		ck.advance(want - time.Millisecond)
		if b.Allow() {
			t.Fatalf("probe admitted %v into a %v window", want-time.Millisecond, want)
		}
		ck.advance(time.Millisecond)
		if !b.Allow() {
			t.Fatalf("probe rejected after the %v window", want)
		}
		b.Record(errDisk) // probe fails, window doubles
	}
	if v := b.View(); v.Reopens != 5 || v.Trips != 1 {
		t.Errorf("view = %+v, want reopens=5 trips=1", v)
	}
}

func TestBreakerDoFastFailsWithTypedError(t *testing.T) {
	ck := newClock()
	b := NewBreaker("quarantine", false, testCfg(ck))
	for i := 0; i < 3; i++ {
		b.Do(func() error { return errDisk })
	}
	ran := false
	err := b.Do(func() error { ran = true; return nil })
	if ran {
		t.Fatal("Do ran the operation through an open breaker")
	}
	var eo *ErrOpen
	if !errors.As(err, &eo) || eo.Domain != "quarantine" {
		t.Fatalf("err = %v, want *ErrOpen for quarantine", err)
	}
	if !IsOpen(err) {
		t.Errorf("IsOpen(%v) = false", err)
	}
	// Recording the rejection must not extend the outage bookkeeping.
	before := b.View().Failures
	b.Record(err)
	if got := b.View().Failures; got != before {
		t.Errorf("ErrOpen was recorded as a failure (%d → %d)", before, got)
	}
}

func TestBreakerJitterStaysInsideWindow(t *testing.T) {
	ck := newClock()
	cfg := testCfg(ck)
	cfg.NoJitter = false
	b := NewBreaker("jitter", false, cfg)
	for i := 0; i < 3; i++ {
		b.Record(errDisk)
	}
	// The jittered window is within [½w, w]; a full base-backoff always
	// admits the probe.
	if b.Allow() && ck.now().Before(b.View().viewNextProbe(ck.now())) {
		t.Fatal("probe admitted before any plausible jittered window")
	}
	ck.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected after the full backoff window")
	}
}

// viewNextProbe reconstructs the earliest plausible probe time from a view.
func (v View) viewNextProbe(now time.Time) time.Time {
	return now.Add(time.Duration(v.RetryInMillis) * time.Millisecond)
}

// failFS is a snapshot.FS whose write path always fails.
type failFS struct{ err error }

func (f *failFS) CreateTemp(dir, pattern string) (snapshot.File, error) { return nil, f.err }
func (f *failFS) Rename(oldpath, newpath string) error                  { return f.err }
func (f *failFS) Remove(name string) error                              { return f.err }
func (f *failFS) SyncDir(dir string) error                              { return f.err }
func (f *failFS) ReadFile(name string) ([]byte, error)                  { return nil, f.err }

func TestGuardFSWholeWriteIsOneOutcome(t *testing.T) {
	ck := newClock()
	b := NewBreaker("store", false, testCfg(ck))
	dir := t.TempDir()
	g := GuardFS(nil, b)

	// Three successful atomic writes: one success each, streak clean.
	for i := 0; i < 3; i++ {
		if err := snapshot.WriteRaw(g, fmt.Sprintf("%s/f%d", dir, i), []byte("data")); err != nil {
			t.Fatalf("WriteRaw: %v", err)
		}
	}
	if v := b.View(); v.Successes != 3 || v.Failures != 0 {
		t.Fatalf("after 3 writes: %+v, want successes=3 failures=0", v)
	}

	// Persistent failure: each failed write is one failure; the third
	// trips the domain, and the fourth write does not reach the device.
	bad := GuardFS(&failFS{err: errDisk}, b)
	for i := 0; i < 3; i++ {
		if err := snapshot.WriteRaw(bad, dir+"/x", []byte("data")); err == nil {
			t.Fatal("write through failing FS succeeded")
		}
	}
	if got := b.State(); got != Open {
		t.Fatalf("state after 3 failed writes = %v, want open", got)
	}
	err := snapshot.WriteRaw(bad, dir+"/x", []byte("data"))
	if !IsOpen(err) {
		t.Fatalf("write through open domain = %v, want *ErrOpen", err)
	}

	// After the backoff, one probe goes through the (healed) real disk
	// and the domain re-closes.
	ck.advance(time.Second)
	if err := snapshot.WriteRaw(g, dir+"/probe", []byte("data")); err != nil {
		t.Fatalf("probe write: %v", err)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}

func TestGuardFSReadFileNotExistIsSuccess(t *testing.T) {
	ck := newClock()
	b := NewBreaker("reads", false, testCfg(ck))
	g := GuardFS(nil, b)
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		if _, err := g.ReadFile(dir + "/missing"); err == nil {
			t.Fatal("reading a missing file succeeded")
		}
	}
	if got := b.State(); got != Closed {
		t.Fatalf("missing files tripped the breaker (state %v)", got)
	}
	if v := b.View(); v.Failures != 0 {
		t.Errorf("missing files recorded as failures: %+v", v)
	}
}

func TestGuardFSRemoveIsUngated(t *testing.T) {
	ck := newClock()
	b := NewBreaker("rm", false, testCfg(ck))
	for i := 0; i < 3; i++ {
		b.Record(errDisk)
	}
	dir := t.TempDir()
	g := GuardFS(nil, b)
	// Remove still reaches the device while the domain is open, and its
	// error (file does not exist) is not recorded.
	_ = g.Remove(dir + "/never-existed")
	if v := b.View(); v.Failures != 3 {
		t.Errorf("Remove outcome was recorded: %+v", v)
	}
}
