package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunSnapshotBasics(t *testing.T) {
	r := NewRun("main")
	r.Begin(1000, 2*time.Second, 1<<20)
	r.Update(Counters{Steps: 640, Nodes: 900, Restarts: 2, QueueLen: 50,
		QueueBytes: 5000, TotalBytes: 7000, PeakBytes: 8000,
		DedupHits: 300, DedupMisses: 340, DedupEvictions: 1})
	r.Solution(14, 120)
	r.Solution(12, 100)
	r.Solution(13, 90) // worse gate count: must not stick
	r.CheckpointWritten(4096)

	s := r.Snapshot(time.Now())
	if s.Label != "main" || s.Aggregate {
		t.Errorf("label/aggregate: %+v", s)
	}
	if s.Steps != 640 || s.Nodes != 900 || s.Restarts != 2 {
		t.Errorf("counters: %+v", s)
	}
	if s.QueueLen != 50 || s.TotalBytes != 7000 || s.PeakBytes != 8000 || s.MaxMemory != 1<<20 {
		t.Errorf("gauges: %+v", s)
	}
	if s.BestGates != 12 || s.BestQuantumCost != 100 {
		t.Errorf("best: gates=%d cost=%d", s.BestGates, s.BestQuantumCost)
	}
	if s.Checkpoints != 1 || s.LastCheckpointAge < 0 || s.LastCheckpointBytes != 4096 {
		t.Errorf("checkpoint: %+v", s)
	}
	if s.StepsBudget != 1000 || s.StepsRemaining != 360 {
		t.Errorf("budget: %+v", s)
	}
	if s.DedupHitRate() < 0.46 || s.DedupHitRate() > 0.47 {
		t.Errorf("hit rate: %v", s.DedupHitRate())
	}
	if s.Done {
		t.Error("not finished yet")
	}
	r.Finish("step-limit")
	s = r.Snapshot(time.Now())
	if !s.Done || s.Stop != "step-limit" {
		t.Errorf("finish: %+v", s)
	}
}

func TestRunNoSolutionNoCheckpoint(t *testing.T) {
	r := NewRun("x")
	r.Begin(0, 0, 0)
	s := r.Snapshot(time.Now())
	if s.BestGates != -1 {
		t.Errorf("BestGates = %d before any solution", s.BestGates)
	}
	if s.LastCheckpointAge != -1 {
		t.Errorf("LastCheckpointAge = %v before any checkpoint", s.LastCheckpointAge)
	}
	if s.StepsBudget != 0 || s.TimeBudget != 0 {
		t.Errorf("budgets should be absent: %+v", s)
	}
}

// TestBeginFoldsAttempts: a Run reused across attempts (sweep samples,
// tightening rounds) reports cumulative counters.
func TestBeginFoldsAttempts(t *testing.T) {
	r := NewRun("row")
	r.Begin(100, 0, 0)
	r.Update(Counters{Steps: 100, Nodes: 150, QueueLen: 30})
	r.Begin(100, 0, 0)
	r.Update(Counters{Steps: 40, Nodes: 60, QueueLen: 7})
	s := r.Snapshot(time.Now())
	if s.Steps != 140 || s.Nodes != 210 {
		t.Errorf("cumulative counters: steps=%d nodes=%d", s.Steps, s.Nodes)
	}
	if s.QueueLen != 7 {
		t.Errorf("gauge must reflect the live attempt only: %d", s.QueueLen)
	}
	if s.StepsRemaining != 60 {
		t.Errorf("budget tracks the current attempt: remaining=%d", s.StepsRemaining)
	}
}

// TestChildAggregation: a parent Run merges its children's telemetry — the
// portfolio contract.
func TestChildAggregation(t *testing.T) {
	root := NewRun("portfolio")
	a := root.Child("variant0")
	b := root.Child("variant1")
	a.Begin(0, 0, 0)
	b.Begin(0, 0, 0)
	a.Update(Counters{Steps: 10, Nodes: 20, QueueLen: 3, TotalBytes: 100, DedupHits: 5, DedupMisses: 5})
	b.Update(Counters{Steps: 30, Nodes: 40, QueueLen: 4, TotalBytes: 200, DedupHits: 1, DedupMisses: 3})
	a.Solution(9, 33)
	b.Solution(7, 55)
	a.Finish("solved")

	s := root.Snapshot(time.Now())
	if !s.Aggregate {
		t.Error("parent snapshot must be marked aggregate")
	}
	if s.Steps != 40 || s.Nodes != 60 || s.QueueLen != 7 || s.TotalBytes != 300 {
		t.Errorf("aggregate sums: %+v", s)
	}
	if s.BestGates != 7 || s.BestQuantumCost != 55 {
		t.Errorf("aggregate best: %d/%d", s.BestGates, s.BestQuantumCost)
	}
	if s.DedupHits != 6 || s.DedupMisses != 8 {
		t.Errorf("aggregate dedup: %+v", s)
	}
	if s.Done {
		t.Error("not done until every child is")
	}
	b.Finish("solved")
	root.Finish("solved")
	if s := root.Snapshot(time.Now()); !s.Done {
		t.Error("all children done → aggregate done")
	}

	kids := root.ChildSnapshots(time.Now())
	if len(kids) != 2 || kids[0].Label != "variant0" || kids[1].Label != "variant1" {
		t.Fatalf("child snapshots: %+v", kids)
	}
	if kids[0].Steps != 10 || kids[1].Steps != 30 {
		t.Errorf("children report individually: %+v", kids)
	}
}

// TestConcurrentUpdates drives a Run from several goroutines while snapshots
// are taken — the -race proof that the telemetry layer is lock-correct.
func TestConcurrentUpdates(t *testing.T) {
	root := NewRun("race")
	var wg sync.WaitGroup
	for v := 0; v < 4; v++ {
		child := root.Child(fmt.Sprintf("v%d", v))
		wg.Add(1)
		go func(r *Run) {
			defer wg.Done()
			r.Begin(1000, time.Second, 1<<20)
			for i := 1; i <= 500; i++ {
				r.Update(Counters{Steps: int64(i), Nodes: int64(2 * i), QueueLen: int64(i % 7)})
				if i%100 == 0 {
					r.Solution(20-i/100, i)
					r.CheckpointWritten(int64(i))
				}
			}
			r.Finish("solved")
		}(child)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			root.Snapshot(time.Now())
			root.ChildSnapshots(time.Now())
		}
	}()
	wg.Wait()
	<-done
	s := root.Snapshot(time.Now())
	if s.Steps != 4*500 || s.BestGates != 15 {
		t.Errorf("final aggregate: steps=%d best=%d", s.Steps, s.BestGates)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := NewRun("jr")
	r.Begin(500, 0, 0)
	r.Update(Counters{Steps: 123, Nodes: 456})
	r.Solution(11, 77)
	if err := sink.Emit(r.Snapshot(time.Now())); err != nil {
		t.Fatal(err)
	}
	r.Update(Counters{Steps: 200, Nodes: 700})
	r.Finish("solved")
	if err := sink.Emit(r.Snapshot(time.Now())); err != nil {
		t.Fatal(err)
	}
	sink.Close()

	var snaps []ProgressSnapshot
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s ProgressSnapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		snaps = append(snaps, s)
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d lines", len(snaps))
	}
	if snaps[0].Steps != 123 || snaps[0].BestGates != 11 || snaps[0].Done {
		t.Errorf("first: %+v", snaps[0])
	}
	if snaps[1].Steps != 200 || !snaps[1].Done || snaps[1].Stop != "solved" {
		t.Errorf("final: %+v", snaps[1])
	}
}

func TestTTYSinkSingleLine(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTTYSink(&buf)
	root := ProgressSnapshot{Label: "main", Steps: 12345, QueueLen: 10, BestGates: -1}
	child := ProgressSnapshot{Label: "variant1", Steps: 99}
	sink.Emit(root)
	sink.Emit(child) // must be ignored: one line, the root's
	root.Steps = 20000
	root.BestGates, root.BestQuantumCost = 12, 88
	sink.Emit(root)
	sink.Close()
	out := buf.String()
	if strings.Count(out, "\r") != 2 {
		t.Errorf("want 2 carriage returns (one per root emit): %q", out)
	}
	if strings.Contains(out, "variant1") {
		t.Errorf("child snapshot leaked into the TTY line: %q", out)
	}
	if !strings.Contains(out, "12g/qc88") {
		t.Errorf("best circuit missing: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Close must terminate the line: %q", out)
	}
}

func TestExpvarSinkPublishes(t *testing.T) {
	sink := NewExpvarSink("test.progress")
	sink.Emit(ProgressSnapshot{Label: "a", Steps: 5, BestGates: -1})
	sink.Emit(ProgressSnapshot{Label: "b", Steps: 9, BestGates: 3})
	// Re-creating a sink with the same name must reuse the registered var,
	// not panic on expvar.Publish.
	sink2 := NewExpvarSink("test.progress")
	sink2.Emit(ProgressSnapshot{Label: "a", Steps: 6, BestGates: -1})

	var got map[string]ProgressSnapshot
	if err := json.Unmarshal([]byte(sink.v.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got["a"].Steps != 6 || got["b"].Steps != 9 {
		t.Errorf("published snapshots: %+v", got)
	}
}

// TestPublishViewRepoints: a view reads its owner on every scrape, and
// publishing the same name again re-points it instead of panicking.
func TestPublishViewRepoints(t *testing.T) {
	n := int64(1)
	PublishView("test.view", func() any { return n })
	n = 2
	if got := expvar.Get("test.view").String(); got != "2" {
		t.Errorf("view = %s, want 2 (read at scrape time)", got)
	}
	PublishView("test.view", func() any { return "second" })
	if got := expvar.Get("test.view").String(); got != `"second"` {
		t.Errorf("view = %s, want the re-published owner", got)
	}
}

func TestPublisherEmitsAndStops(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	root := NewRun("pub")
	child := root.Child("v0")
	child.Begin(0, 0, 0)
	child.Update(Counters{Steps: 7})
	p := NewPublisher(root, 10*time.Millisecond, sink, nil) // nil sink dropped
	p.Start()
	time.Sleep(35 * time.Millisecond)
	child.Update(Counters{Steps: 50})
	child.Finish("solved")
	root.Finish("solved")
	p.Stop()

	sc := bufio.NewScanner(&buf)
	var all []ProgressSnapshot
	for sc.Scan() {
		var s ProgressSnapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		all = append(all, s)
	}
	if len(all) < 4 { // ≥1 tick + final, × (root + child)
		t.Fatalf("too few snapshots: %d", len(all))
	}
	last := all[len(all)-1]
	penult := all[len(all)-2]
	// The final publish emits root then child.
	if !penult.Aggregate || penult.Label != "pub" || penult.Steps != 50 || !penult.Done {
		t.Errorf("final aggregate: %+v", penult)
	}
	if last.Label != "v0" || last.Steps != 50 || !last.Done {
		t.Errorf("final child: %+v", last)
	}
	sawChild := false
	for _, s := range all {
		if s.Label == "v0" {
			sawChild = true
		}
	}
	if !sawChild {
		t.Error("per-variant snapshots missing")
	}
}

func TestPublisherRates(t *testing.T) {
	r := NewRun("rate")
	r.Begin(0, 0, 0)
	p := NewPublisher(r, time.Hour) // manual publishes only
	now := time.Now()
	r.Update(Counters{Steps: 0})
	s0 := r.Snapshot(now)
	p.fillRate(&s0, now)
	if s0.StepsPerSec != 0 {
		t.Errorf("first sample has no rate: %v", s0.StepsPerSec)
	}
	r.Update(Counters{Steps: 1000})
	later := now.Add(2 * time.Second)
	s1 := r.Snapshot(later)
	p.fillRate(&s1, later)
	if s1.StepsPerSec < 499 || s1.StepsPerSec > 501 {
		t.Errorf("rate = %v, want ~500", s1.StepsPerSec)
	}
}

func TestServeMetrics(t *testing.T) {
	sink := NewExpvarSink("serve.progress")
	sink.Emit(ProgressSnapshot{Label: "srv", Steps: 42, BestGates: -1})
	addr, shutdown, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	var snaps map[string]ProgressSnapshot
	if err := json.Unmarshal(vars["serve.progress"], &snaps); err != nil {
		t.Fatalf("progress var: %v", err)
	}
	if snaps["srv"].Steps != 42 {
		t.Errorf("served snapshot: %+v", snaps)
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint: %v", resp.Status)
	}
}

func TestFormatHelpers(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{{999, "999"}, {15000, "15.0k"}, {2_500_000, "2.50M"}, {3_000_000_000, "3.00G"}} {
		if got := countString(tc.v); got != tc.want {
			t.Errorf("countString(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
	for _, tc := range []struct {
		v    int64
		want string
	}{{512, "512B"}, {4 << 10, "4.0KiB"}, {3 << 20, "3.0MiB"}, {2 << 30, "2.00GiB"}} {
		if got := byteString(tc.v); got != tc.want {
			t.Errorf("byteString(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
