// Package health is the fault-domain circuit breaker: a long-running
// synthesis process puts one in front of every optional dependency — the
// answer cache's disk store, checkpoint and ledger writes, quarantine
// artifacts — so a persistent I/O fault sheds the *feature*, never the
// *job*.
//
// Each Breaker follows the classic three-state protocol: it starts closed
// (operations flow through, failures are counted), opens after Threshold
// consecutive failures (operations are rejected instantly, so a dead disk
// costs a map lookup instead of a blocking syscall), and half-opens after
// an exponential backoff with jitter to let exactly one probe through; a
// successful probe closes the breaker again, a failed one re-opens it with
// a doubled backoff (capped at MaxBackoff).
//
// A breaker is required or optional. The process that owns its breakers
// (internal/serve) is ready while no required one is open; optional
// domains only degrade, matching the design rule that the search engine
// needs none of them to produce a verified circuit. Each breaker keeps its
// own transition counters, and View reads them out for health endpoints.
package health

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// State is a breaker's position in the closed → open → half-open cycle.
type State int

const (
	// Closed: the domain is healthy; operations flow through.
	Closed State = iota
	// Open: the domain tripped; operations are rejected until the next
	// probe time.
	Open
	// HalfOpen: a probe operation is in flight; its outcome decides
	// between Closed and a re-opened, longer backoff.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// ErrOpen is the fast-fail error a guarded operation gets while its domain
// is open: no I/O was attempted.
type ErrOpen struct {
	// Domain names the tripped fault domain.
	Domain string
	// RetryIn is how long until the next half-open probe is allowed.
	RetryIn time.Duration
}

func (e *ErrOpen) Error() string {
	return fmt.Sprintf("health: %s domain open (next probe in %v)", e.Domain, e.RetryIn.Round(time.Millisecond))
}

// IsOpen reports whether err is (or wraps) a breaker fast-fail — an
// operation that never reached the device.
func IsOpen(err error) bool {
	var eo *ErrOpen
	return errors.As(err, &eo)
}

// Config tunes one breaker. The zero value selects the documented
// defaults.
type Config struct {
	// Threshold is how many consecutive failures trip a closed breaker
	// (default 3).
	Threshold int
	// BaseBackoff is the first open window (default 500 ms); each failed
	// probe doubles it.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 30 s).
	MaxBackoff time.Duration
	// NoJitter disables the randomized backoff spread — deterministic
	// open windows for tests.
	NoJitter bool
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 500 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is one fault domain's circuit breaker. Safe for concurrent use.
// The zero value is not usable; use NewBreaker.
type Breaker struct {
	name     string
	required bool
	cfg      Config

	mu          sync.Mutex
	state       State
	consecFails int
	backoff     time.Duration // current open window (0 until first trip)
	nextProbe   time.Time     // when Open may half-open
	lastErr     string
	rng         *rand.Rand

	trips, reopens, probes, recoveries int64
	failures, successes, rejections    int64
}

// NewBreaker returns a closed breaker for the named domain. required marks
// a domain whose outage must take its process out of rotation.
func NewBreaker(name string, required bool, cfg Config) *Breaker {
	c := cfg.withDefaults()
	seed := uint64(14695981039346656037)
	for _, b := range []byte(name) {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	return &Breaker{
		name:     name,
		required: required,
		cfg:      c,
		rng:      rand.New(rand.NewSource(int64(seed))),
	}
}

// Name returns the domain name.
func (b *Breaker) Name() string { return b.name }

// State returns the current breaker state (Open reported as HalfOpen only
// while a probe is actually admitted).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether an operation may proceed. While the domain is
// open it returns false — instantly, no I/O — until the backoff expires,
// at which point it admits a single half-open probe (and pushes the next
// admission one base-backoff out, so a crowd of callers cannot stampede a
// recovering disk). Callers that proceed must Record the outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	switch b.state {
	case Closed:
		return true
	case Open, HalfOpen:
		if now.Before(b.nextProbe) {
			b.rejections++
			return false
		}
		if b.state == Open {
			b.state = HalfOpen
		}
		b.probes++
		// Space out follow-up probes in case this one never reports
		// (e.g. its operation was skipped): the breaker must not wedge.
		b.nextProbe = now.Add(b.cfg.BaseBackoff)
		return true
	}
	return true
}

// Record feeds an operation outcome to the breaker: nil is a success
// (closing a half-open domain, resetting the failure streak), non-nil is
// a failure (tripping the domain at Threshold consecutive failures, or
// re-opening a half-open one with a doubled backoff). ErrOpen rejections
// must not be Recorded — they are bookkept by Allow.
func (b *Breaker) Record(err error) {
	if err != nil && IsOpen(err) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	if err == nil {
		b.successes++
		b.consecFails = 0
		if b.state != Closed {
			b.state = Closed
			b.backoff = 0
			b.recoveries++
		}
		return
	}
	b.failures++
	b.consecFails++
	b.lastErr = err.Error()
	switch b.state {
	case Closed:
		if b.consecFails < b.cfg.Threshold {
			return
		}
		b.trips++
		b.backoff = b.cfg.BaseBackoff
		b.state = Open
		b.nextProbe = now.Add(b.jittered(b.backoff))
	case HalfOpen, Open:
		// A failed probe (or a straggling in-flight operation): back off
		// harder. The domain counts as one continuous outage: a reopen,
		// not another trip.
		b.reopens++
		b.backoff = min(2*b.backoffOrBase(), b.cfg.MaxBackoff)
		b.state = Open
		b.nextProbe = now.Add(b.jittered(b.backoff))
	}
}

// Trip forces the domain open immediately, as if Threshold consecutive
// failures had been recorded — for faults discovered outside the guarded
// I/O path, like an unusable state directory at startup. The domain heals
// the normal way: a half-open probe succeeds and it re-closes.
func (b *Breaker) Trip(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	b.failures++
	b.consecFails = max(b.consecFails+1, b.cfg.Threshold)
	if err != nil {
		b.lastErr = err.Error()
	}
	if b.state == Closed {
		b.trips++
	} else {
		b.reopens++
	}
	b.backoff = b.backoffOrBase()
	b.state = Open
	b.nextProbe = now.Add(b.jittered(b.backoff))
}

// Do is the convenience guard: it fast-fails with *ErrOpen while the
// domain is open, otherwise runs op and Records its outcome.
func (b *Breaker) Do(op func() error) error {
	if !b.Allow() {
		return &ErrOpen{Domain: b.name, RetryIn: b.retryIn()}
	}
	err := op()
	b.Record(err)
	return err
}

func (b *Breaker) backoffOrBase() time.Duration {
	if b.backoff <= 0 {
		return b.cfg.BaseBackoff
	}
	return b.backoff
}

// jittered spreads a backoff over [½w, w] so breakers that tripped
// together do not probe in lockstep.
func (b *Breaker) jittered(w time.Duration) time.Duration {
	if b.cfg.NoJitter || w <= 1 {
		return w
	}
	half := w / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

func (b *Breaker) retryIn() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Closed {
		return 0
	}
	d := b.nextProbe.Sub(b.cfg.Now())
	if d < 0 {
		return 0
	}
	return d
}

// View is a point-in-time snapshot of one domain for health endpoints.
type View struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Required bool   `json:"required"`
	// ConsecutiveFailures is the current failure streak (resets on any
	// success).
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Trips counts closed→open transitions; Reopens counts failed
	// half-open probes; Recoveries counts re-closes.
	Trips      int64 `json:"trips"`
	Reopens    int64 `json:"reopens,omitempty"`
	Probes     int64 `json:"probes,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
	// Failures/Successes/Rejections are operation totals (rejections
	// never reached the device).
	Failures   int64 `json:"failures,omitempty"`
	Successes  int64 `json:"successes,omitempty"`
	Rejections int64 `json:"rejections,omitempty"`
	// LastError is the most recent recorded failure.
	LastError string `json:"last_error,omitempty"`
	// RetryInMillis is how long until the next probe (open domains only).
	RetryInMillis int64 `json:"retry_in_ms,omitempty"`
}

// View snapshots the breaker.
func (b *Breaker) View() View {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := View{
		Name:                b.name,
		State:               b.state.String(),
		Required:            b.required,
		ConsecutiveFailures: b.consecFails,
		Trips:               b.trips,
		Reopens:             b.reopens,
		Probes:              b.probes,
		Recoveries:          b.recoveries,
		Failures:            b.failures,
		Successes:           b.successes,
		Rejections:          b.rejections,
		LastError:           b.lastErr,
	}
	if b.state != Closed {
		if d := b.nextProbe.Sub(b.cfg.Now()); d > 0 {
			v.RetryInMillis = d.Milliseconds()
		}
	}
	return v
}
