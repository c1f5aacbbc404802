package serve

// Fault-domain supervision. Every optional dependency of the service —
// the answer cache's disk store, checkpoint writes, the drain ledger,
// quarantine artifacts — runs behind one of the server's four circuit
// breakers. A persistent I/O fault trips its domain and the server sheds
// the feature, never the job: cache → transparent miss/no-store,
// checkpointing → in-memory-only (resume disabled for the window),
// quarantine → artifact logged instead of written. Degradation is
// observable on /v1/healthz (per-domain views) and /v1/readyz (503 while
// a *required* domain is down); rmrlsd derives its rmrls.health_*
// expvars from the same views.

import (
	"net/http"

	"repro/internal/health"
	"repro/internal/snapshot"
)

// Fault-domain names of the server's breakers; Config.RequiredDomains
// entries must come from this set.
const (
	DomainCache      = "cache"
	DomainCheckpoint = "checkpoint"
	DomainLedger     = "ledger"
	DomainQuarantine = "quarantine"
)

// DomainNames lists every fault domain of the server, in health-view
// order.
func DomainNames() []string {
	return []string{DomainCache, DomainCheckpoint, DomainLedger, DomainQuarantine}
}

// initHealth builds the server's fault-domain breakers and the guarded
// filesystems the I/O paths use. Required domains gate /v1/readyz;
// everything else only degrades.
func (s *Server) initHealth() {
	required := make(map[string]bool, len(s.cfg.RequiredDomains))
	for _, name := range s.cfg.RequiredDomains {
		required[name] = true
	}
	for i, name := range DomainNames() {
		s.domains[i] = health.NewBreaker(name, required[name], s.cfg.HealthConfig)
	}
	s.domCache, s.domCkpt, s.domLedger, s.domQuar = s.domains[0], s.domains[1], s.domains[2], s.domains[3]

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

// ready reports whether the instance should receive traffic: not draining
// and every required fault domain closed. The string names what blocks.
func (s *Server) ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	for _, v := range s.DomainViews() {
		if v.Required && v.State != health.Closed.String() {
			return false, v.Name
		}
	}
	return true, ""
}

// DomainViews snapshots every fault domain in DomainNames order.
func (s *Server) DomainViews() []health.View {
	views := make([]health.View, len(s.domains))
	for i, b := range s.domains {
		views[i] = b.View()
	}
	return views
}

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
	if ok, reason := s.ready(); !ok {
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
