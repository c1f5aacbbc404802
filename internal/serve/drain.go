package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/snapshot"
)

// ledgerName is the drain ledger file inside StateDir.
const ledgerName = "ledger.json"

// ledgerVersion is bumped on any ledger layout change; unknown versions
// are skipped at recovery (jobs lost, start clean) rather than guessed at.
const ledgerVersion = 1

// drainLedger is the persisted record of unfinished jobs: the original
// requests (recompiled at recovery — they were valid once, and revalidating
// catches a downgraded binary) plus the IDs that name their checkpoints.
type drainLedger struct {
	Version int           `json:"version"`
	Jobs    []ledgerEntry `json:"jobs"`
}

type ledgerEntry struct {
	ID      string  `json:"id"`
	Request Request `json:"request"`
}

func (s *Server) ledgerPath() string { return filepath.Join(s.cfg.StateDir, ledgerName) }

func (s *Server) checkpointPath(j *Job) string {
	return filepath.Join(s.cfg.StateDir, "ckpt-"+j.id+".snap")
}

// removeCheckpoint deletes a finished job's checkpoint (best-effort — a
// leftover file is re-judged and discarded at the next recovery).
func (s *Server) removeCheckpoint(j *Job) {
	if s.cfg.StateDir == "" {
		return
	}
	s.cfg.FS.Remove(s.checkpointPath(j))
}

// Drain gracefully stops the server: intake is closed (submits get 503),
// running searches are canceled — each flushes a final checkpoint through
// the engine's crash-safe snapshot protocol — and every unfinished job is
// persisted to the drain ledger for the next start to recover. ctx bounds
// how long Drain waits for the workers; on expiry the ledger is written
// anyway (a still-running job's periodic checkpoint, if any, survives via
// the atomic replace protocol). Idempotent; the first call wins.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.queue.Close()
	s.drainStop()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-ctx.Done():
	}

	// Park still-queued jobs: their waiters unblock with the interrupted
	// status, and they go into the ledger untouched.
	for _, j := range s.queue.drainAll() {
		s.stats.interrupted.Add(1)
		j.mu.Lock()
		j.status = StatusInterrupted
		j.mu.Unlock()
		select {
		case <-j.done:
		default:
			close(j.done)
		}
	}

	if s.cfg.StateDir == "" {
		return nil
	}
	led := drainLedger{Version: ledgerVersion}
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.Status() {
		case StatusInterrupted, StatusQueued, StatusRunning:
			led.Jobs = append(led.Jobs, ledgerEntry{ID: j.id, Request: j.req})
		}
	}
	s.mu.Unlock()
	if len(led.Jobs) == 0 {
		s.cfg.FS.Remove(s.ledgerPath())
		return nil
	}
	data, err := json.MarshalIndent(&led, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode ledger: %w", err)
	}
	if err := s.ledgerWrite(data); err != nil {
		return fmt.Errorf("serve: write ledger: %w", err)
	}
	return nil
}

// isNotExist reports a missing file through any number of error wraps
// (os, snapshot, chaos, and guarded filesystems all wrap differently).
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// recover loads the previous process's drain ledger and re-admits its
// jobs: checkpointed searches resume exactly, the rest re-run from
// scratch. Every kind of damage degrades rather than failing the start —
// an unusable state directory trips the checkpoint and ledger fault
// domains (checkpointing goes in-memory-only, resume is disabled for the
// window, /v1/readyz fails if those domains are required), an unreadable
// ledger starts the server empty but leaves the file for a later healthy
// restart, an undecodable ledger starts empty and removes it, and an
// unreadable checkpoint re-runs that job fresh. Everything shed is
// reported in RecoveryNotes.
func (s *Server) recover() {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		err = fmt.Errorf("serve: state dir: %w", err)
		s.recoveryNotes = append(s.recoveryNotes,
			fmt.Sprintf("state dir unusable (%v); checkpointing and drain persistence disabled until it heals", err))
		s.domCkpt.Trip(err)
		s.domLedger.Trip(err)
		s.cfg.Logf("serve: state dir unusable (%v); running without durable state", err)
		return
	}
	data, err := s.readLedger()
	if isNotExist(err) {
		return
	}
	if err != nil {
		// The ledger may be fine once the device heals: start empty but
		// leave the file in place so a later restart can recover it.
		s.recoveryNotes = append(s.recoveryNotes,
			fmt.Sprintf("ledger unreadable (%v); starting empty, file left in place", err))
		return
	}
	var led drainLedger
	if err := json.Unmarshal(data, &led); err != nil {
		s.recoveryNotes = append(s.recoveryNotes, fmt.Sprintf("ledger unreadable (%v); starting empty", err))
		s.cfg.FS.Remove(s.ledgerPath())
		return
	}
	if led.Version != ledgerVersion {
		s.recoveryNotes = append(s.recoveryNotes, fmt.Sprintf("ledger version %d unsupported; starting empty", led.Version))
		s.cfg.FS.Remove(s.ledgerPath())
		return
	}

	now := time.Now()
	for _, e := range led.Jobs {
		c, rerr := compileRequest(&e.Request, s.cfg.Ceiling)
		if rerr != nil {
			s.recoveryNotes = append(s.recoveryNotes, fmt.Sprintf("job %s: request no longer valid (%v); dropped", e.ID, rerr))
			continue
		}
		j := newJob(c, e.Request, now)
		j.pin() // no client is attached to a recovered job
		// The ledger ID names the checkpoint file; keep it even if changed
		// ceilings re-key the job, so the snapshot is found. Reads go
		// through the guarded checkpoint FS: a sick device trips the
		// domain instead of stalling recovery, and the jobs re-run fresh.
		ckptPath := filepath.Join(s.cfg.StateDir, "ckpt-"+e.ID+".snap")
		if st, err := snapshot.ReadFileFS(s.ckptFS, ckptPath); err == nil {
			j.resume = st
		} else if !isNotExist(err) {
			s.recoveryNotes = append(s.recoveryNotes, fmt.Sprintf("job %s: checkpoint unusable (%v); re-running fresh", e.ID, err))
			s.cfg.FS.Remove(ckptPath)
		}
		if e.ID != j.id {
			// Re-keyed (ceilings changed): move the checkpoint to the new
			// name so the engine's own writes and removes line up.
			if j.resume != nil {
				s.cfg.FS.Rename(ckptPath, s.checkpointPath(j))
			}
			s.recoveryNotes = append(s.recoveryNotes, fmt.Sprintf("job %s re-keyed to %s under new ceilings", e.ID, j.id))
		}
		s.mu.Lock()
		s.jobs[j.id] = j
		s.byKey[j.key] = j
		s.mu.Unlock()
		if err := s.queue.Enqueue(j); err != nil {
			s.recoveryNotes = append(s.recoveryNotes, fmt.Sprintf("job %s: re-enqueue failed (%v); dropped", j.id, err))
			s.mu.Lock()
			delete(s.jobs, j.id)
			delete(s.byKey, j.key)
			s.mu.Unlock()
			continue
		}
		s.stats.recovered.Add(1)
	}
	s.cfg.FS.Remove(s.ledgerPath())
}
