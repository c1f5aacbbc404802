package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Sink consumes ProgressSnapshots. Emit may be called from the publisher
// goroutine at any cadence; implementations serialize internally. Close
// flushes whatever the sink buffers and is called exactly once, after the
// final snapshot.
type Sink interface {
	Emit(ProgressSnapshot) error
	Close() error
}

// JSONLSink writes one JSON object per snapshot per line — the
// machine-readable firehose (-metrics-json). Safe for concurrent Emit.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
}

// NewJSONLSink wraps w; the caller keeps ownership of the underlying file.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w, enc: json.NewEncoder(w)}
}

func (s *JSONLSink) Emit(snap ProgressSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(&snap)
}

func (s *JSONLSink) Close() error { return nil }

// TTYSink renders the run's top-level snapshot as a single line rewritten
// in place with a carriage return — the human view (-progress). Only the
// first label it sees (the Publisher emits the root snapshot first) is
// rendered, so per-variant child snapshots do not fight over the one line.
// Close terminates the line with a newline so the shell prompt is not
// overwritten.
type TTYSink struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	bound bool
	wrote bool
}

func NewTTYSink(w io.Writer) *TTYSink { return &TTYSink{w: w} }

func (s *TTYSink) Emit(snap ProgressSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.bound {
		s.label, s.bound = snap.Label, true
	}
	if snap.Label != s.label {
		return nil
	}
	line := formatProgressLine(&snap)
	// Pad to blank out any longer previous line before the carriage return.
	_, err := fmt.Fprintf(s.w, "\r%-110s", line)
	s.wrote = true
	return err
}

func (s *TTYSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wrote {
		_, err := fmt.Fprintln(s.w)
		return err
	}
	return nil
}

// formatProgressLine is the single-line human rendering of a snapshot.
func formatProgressLine(s *ProgressSnapshot) string {
	best := "none"
	if s.BestGates >= 0 {
		best = fmt.Sprintf("%dg/qc%d", s.BestGates, s.BestQuantumCost)
	}
	line := fmt.Sprintf("%s %s | %s steps (%s/s) q=%s/%s best=%s",
		s.Label,
		s.Elapsed.Round(time.Second),
		countString(s.Steps),
		countString(int64(s.StepsPerSec)),
		countString(s.QueueLen),
		byteString(s.TotalBytes),
		best)
	if probes := s.DedupHits + s.DedupMisses; probes > 0 {
		line += fmt.Sprintf(" dedup=%.0f%%", 100*s.DedupHitRate())
	}
	if s.Restarts > 0 {
		line += fmt.Sprintf(" rstr=%d", s.Restarts)
	}
	if s.Checkpoints > 0 && s.LastCheckpointAge >= 0 {
		line += fmt.Sprintf(" ckpt=%s ago", s.LastCheckpointAge.Round(time.Second))
	}
	if s.StepsBudget > 0 {
		line += fmt.Sprintf(" budget=%s left", countString(s.StepsRemaining))
	} else if s.TimeBudget > 0 {
		line += fmt.Sprintf(" budget=%s left", s.TimeRemaining.Round(time.Second))
	}
	if s.Status != "" {
		line += " [" + s.Status + "]"
	}
	if s.Done {
		line += " done"
		if s.Stop != "" {
			line += " (" + s.Stop + ")"
		}
	}
	return line
}

// countString renders large counts compactly (1234567 → "1.23M").
func countString(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// byteString renders byte sizes in binary units.
func byteString(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// ExpvarSink publishes the latest snapshot per label as one expvar variable
// (a JSON object keyed by label), served at /debug/vars by ServeMetrics or
// any expvar-aware scraper.
//
// expvar's registry is append-only and process-global, so the underlying
// variable is registered once per name and reused by later sinks with the
// same name — creating a second sink for a finished run simply overwrites
// the labels it emits.
type ExpvarSink struct {
	v *expvarProgress
}

// DefaultExpvarName is the registry name used by NewExpvarSink.
const DefaultExpvarName = "rmrls.progress"

var expvarMu sync.Mutex

// NewExpvarSink returns a sink publishing under the given expvar name
// (DefaultExpvarName when empty).
func NewExpvarSink(name string) *ExpvarSink {
	if name == "" {
		name = DefaultExpvarName
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if existing, ok := expvar.Get(name).(*expvarProgress); ok {
		return &ExpvarSink{v: existing}
	}
	v := &expvarProgress{snaps: make(map[string]ProgressSnapshot)}
	expvar.Publish(name, v)
	return &ExpvarSink{v: v}
}

func (s *ExpvarSink) Emit(snap ProgressSnapshot) error {
	s.v.mu.Lock()
	s.v.snaps[snap.Label] = snap
	s.v.mu.Unlock()
	return nil
}

func (s *ExpvarSink) Close() error { return nil }

// expvarProgress is the registered expvar.Var: label → latest snapshot.
type expvarProgress struct {
	mu    sync.Mutex
	snaps map[string]ProgressSnapshot
}

func (v *expvarProgress) String() string {
	v.mu.Lock()
	data, err := json.Marshal(v.snaps) // Marshal orders map keys
	v.mu.Unlock()
	if err != nil {
		return "{}"
	}
	return string(data)
}

// views holds, for each name PublishView registered, the function its
// published expvar.Func currently reads.
var views = map[string]*atomic.Value{}

// PublishView publishes f under name as a read-only expvar.Func, computed
// from its owner's own counters on every scrape. expvar's registry is
// append-only and process-global, so publishing a name again re-points the
// registered Func at the new f instead of panicking: a command's run
// called twice in one process reports its latest owner.
func PublishView(name string, f func() any) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	cur, ok := views[name]
	if !ok {
		cur = new(atomic.Value)
		views[name] = cur
		expvar.Publish(name, expvar.Func(func() any { return cur.Load().(func() any)() }))
	}
	cur.Store(f)
}
