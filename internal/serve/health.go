package serve

// Fault-domain supervision. Every optional dependency of the service —
// the answer cache's disk store, checkpoint writes, the drain ledger,
// quarantine artifacts — runs behind a circuit breaker registered on one
// Supervisor. A persistent I/O fault trips its domain and the server
// sheds the feature, never the job: cache → transparent miss/no-store,
// checkpointing → in-memory-only (resume disabled for the window),
// quarantine → artifact logged instead of written. Degradation is
// observable on /v1/healthz (per-domain views), /v1/readyz (503 while a
// *required* domain is down), and the rmrls.health_* expvars.

import (
	"net/http"

	"repro/internal/health"
	"repro/internal/snapshot"
)

// Fault-domain names used by the server's supervisor; Config.RequiredDomains
// entries must come from this set.
const (
	DomainCache      = "cache"
	DomainCheckpoint = "checkpoint"
	DomainLedger     = "ledger"
	DomainQuarantine = "quarantine"
)

// DomainNames lists every fault domain the server registers, in
// registration (and health-view) order.
func DomainNames() []string {
	return []string{DomainCache, DomainCheckpoint, DomainLedger, DomainQuarantine}
}

// initHealth registers the server's fault domains on the supervisor and
// builds the guarded filesystems the I/O paths use. Required domains gate
// /v1/readyz; everything else only degrades.
func (s *Server) initHealth() {
	s.health = s.cfg.Health
	if s.health == nil {
		s.health = health.NewSupervisor()
	}
	required := make(map[string]bool, len(s.cfg.RequiredDomains))
	for _, name := range s.cfg.RequiredDomains {
		required[name] = true
	}
	reg := func(name string) *health.Breaker {
		return s.health.Register(name, required[name], s.cfg.HealthConfig)
	}
	s.domCache = reg(DomainCache)
	s.domCkpt = reg(DomainCheckpoint)
	s.domLedger = reg(DomainLedger)
	s.domQuar = reg(DomainQuarantine)

	// Checkpoints and quarantine artifacts write through guarded FS
	// wrappers: one breaker outcome per atomic write, instant *ErrOpen
	// fast-fails while the domain is open. The answer cache opens over the
	// same kind of wrapper on the cache domain (see New) and keeps serving
	// memory entries while the disk is shed. The ledger is NOT guarded
	// here — the final drain flush deserves a real attempt even
	// mid-outage — its writes record outcomes manually (see Drain).
	s.ckptFS = health.GuardFS(s.cfg.FS, s.domCkpt)
	s.quarFS = health.GuardFS(s.cfg.FS, s.domQuar)
}

// Ready reports whether the instance should receive traffic: not draining
// and every required fault domain closed. The string names what blocks.
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	return s.health.Ready()
}

// Health returns the server's fault-domain supervisor (for tests and for
// embedding processes that want to watch domains directly).
func (s *Server) Health() *health.Supervisor { return s.health }

// readyView is the /v1/readyz body.
type readyView struct {
	Ready bool `json:"ready"`
	// Reason names what blocks readiness: "draining" or an open required
	// domain.
	Reason string `json:"reason,omitempty"`
}

// handleReady implements GET /v1/readyz: 200 while the instance can do
// useful work, 503 while it is draining or a *required* fault domain is
// open. Optional open domains degrade (visible on /v1/healthz) without
// failing readiness — the job still gets served, only the feature is shed.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.Ready(); !ok {
		setRetryAfter(w, s.cfg.RetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, readyView{Ready: false, Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, readyView{Ready: true})
}

// ledgerWrite is the drain ledger's manual breaker accounting: the write
// always reaches the device (no Allow gate — the final drain flush
// deserves a real attempt even mid-outage), and its outcome feeds the
// ledger domain so healthz still shows the fault.
func (s *Server) ledgerWrite(data []byte) error {
	err := snapshot.WriteRaw(s.cfg.FS, s.ledgerPath(), data)
	s.domLedger.Record(err)
	return err
}

// readLedger reads the drain ledger through the FS seam, recording the
// outcome on the ledger domain (a missing ledger is a healthy answer).
func (s *Server) readLedger() ([]byte, error) {
	data, err := s.cfg.FS.ReadFile(s.ledgerPath())
	if err == nil || isNotExist(err) {
		s.domLedger.Record(nil)
	} else {
		s.domLedger.Record(err)
	}
	return data, err
}
