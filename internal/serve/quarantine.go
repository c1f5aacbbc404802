package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/tt"
	"repro/internal/verify"
)

// QuarantineArtifact is the evidence file written when a job's circuit
// fails independent verification. It carries everything needed to replay
// the failure offline: the original request verbatim, the fingerprints
// that pin the engine configuration, the embedding seed for PLA inputs
// (the one nondeterministic-looking input to the pipeline — it is in fact
// a fixed constant, recorded so the replay uses the same one), and the
// rejected cascade with the first counterexample input.
type QuarantineArtifact struct {
	JobID              string    `json:"job_id"`
	IdempotencyKey     string    `json:"idempotency_key"`
	WrittenAt          time.Time `json:"written_at"`
	Attempt            string    `json:"attempt"` // "primary" or "degraded"
	Stage              string    `json:"stage"`
	Request            Request   `json:"request"`
	SpecHash           string    `json:"spec_hash"`
	OptionsFingerprint string    `json:"options_fingerprint"`
	PLAEmbedTries      int       `json:"pla_embed_tries,omitempty"`
	PLAEmbedSeed       uint64    `json:"pla_embed_seed,omitempty"`
	Wires              int       `json:"wires"`
	Circuit            string    `json:"circuit"`
	Mismatch           string    `json:"mismatch"`
}

// quarantinePath is where a job's verification-failure evidence lands.
func (s *Server) quarantinePath(j *Job, attempt string) string {
	name := "quarantine-" + j.id
	if attempt != "primary" {
		name += "-" + attempt
	}
	return filepath.Join(s.cfg.StateDir, name+".json")
}

// quarantine writes the verification-failure artifact atomically through
// the quarantine fault domain (guarded snapshot FS — same
// crash-consistency contract as checkpoints and the drain ledger).
// Returns the artifact path, or "" when no state directory is configured
// or the write failed — quarantine is best-effort evidence capture and
// must never mask the original failure. When the write fails (including a
// breaker fast-fail while the domain is open), the artifact JSON goes to
// the operational log instead: evidence survives the outage, just not
// durably.
func (s *Server) quarantine(j *Job, verr *verify.Error, attempt string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	art := QuarantineArtifact{
		JobID:              j.id,
		IdempotencyKey:     fmt.Sprintf("%016x", j.c.key),
		WrittenAt:          time.Now().UTC(),
		Attempt:            attempt,
		Stage:              string(verr.Stage),
		Request:            j.req,
		SpecHash:           fmt.Sprintf("%016x", j.c.spec.Hash()),
		OptionsFingerprint: fmt.Sprintf("%016x", core.OptionsFingerprint(&j.c.opts)),
		Wires:              j.c.spec.N,
		Circuit:            verr.Circuit,
		Mismatch:           verr.Error(),
	}
	if j.req.Spec.PLA != "" {
		art.PLAEmbedTries = tt.PLAEmbedTries
		art.PLAEmbedSeed = tt.PLAEmbedSeed
	}
	data, err := json.MarshalIndent(&art, "", "  ")
	if err != nil {
		return ""
	}
	path := s.quarantinePath(j, attempt)
	if err := snapshot.WriteRaw(s.quarFS, path, append(data, '\n')); err != nil {
		s.cfg.Logf("serve: quarantine write failed (%v); artifact follows\n%s", err, data)
		return ""
	}
	return path
}
