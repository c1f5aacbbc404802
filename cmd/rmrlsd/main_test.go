package main

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/serve"
)

// syncBuffer is a writer that run and the polling test may share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// startRun runs rmrlsd in the background and returns its base URL, its
// stderr, and a stop function that signals a drain and returns the exit
// code.
func startRun(t *testing.T, args ...string) (string, *syncBuffer, func() int) {
	t.Helper()
	var stdout, stderr syncBuffer
	sig := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() { code <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), sig, &stdout, &stderr) }()
	var addr string
	waitFor(t, "rmrlsd to listen", func() bool {
		m := listening.FindStringSubmatch(stdout.String())
		if m != nil {
			addr = m[1]
		}
		return m != nil
	})
	return "http://" + addr, &stderr, func() int {
		sig <- os.Interrupt
		return <-code
	}
}

// expvarInt reads one of the process-level int views.
func expvarInt(t *testing.T, name string) int64 {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %s not published", name)
	}
	n, err := strconv.ParseInt(v.String(), 10, 64)
	if err != nil {
		t.Fatalf("expvar %s = %s: %v", name, v.String(), err)
	}
	return n
}

// checkHealthExpvars compares the rmrls.health_* expvars with the healthz
// domain views they are derived from, and returns the cache domain's view
// and the number of open domains.
func checkHealthExpvars(t *testing.T, url string) (health.View, int64) {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hv struct{ Domains []health.View }
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	var trips, probes, recoveries, open int64
	var cacheView health.View
	for _, v := range hv.Domains {
		trips += v.Trips
		probes += v.Probes
		recoveries += v.Recoveries
		if v.State != health.Closed.String() {
			open++
		}
		if v.Name == serve.DomainCache {
			cacheView = v
		}
	}
	for name, want := range map[string]int64{
		"rmrls.health_trips":        trips,
		"rmrls.health_probes":       probes,
		"rmrls.health_recoveries":   recoveries,
		"rmrls.health_open_domains": open,
	} {
		if got := expvarInt(t, name); got != want {
			t.Errorf("%s = %d, healthz domain views say %d", name, got, want)
		}
	}
	return cacheView, open
}

// TestChaosExpvarsFollowTheDomainViews: through a scheduled cache outage
// and its heal, the rmrls.health_* expvars move exactly as the healthz
// domain views do. A second run in the same process re-publishes every
// expvar name without panicking and reports the new server.
func TestChaosExpvarsFollowTheDomainViews(t *testing.T) {
	url, stderr, stop := startRun(t, "-cache-dir", t.TempDir(),
		"-chaos", "+0s fail cache eio; +2s heal cache")
	// Distinct 3-variable functions, so each submission's admission lookup
	// and result store reach the cache disk rather than its memory tier.
	src := rand.New(rand.NewSource(1))
	submit := func() {
		p := strings.Trim(fmt.Sprint(src.Perm(8)), "[]")
		body := fmt.Sprintf(`{"spec":{"perm":"{%s}"},"budget":{"time_ms":30000}}`, strings.ReplaceAll(p, " ", ", "))
		resp, err := http.Post(url+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: status %d", p, resp.StatusCode)
		}
	}

	waitFor(t, "the cache fault", func() bool { return strings.Contains(stderr.String(), "chaos: +0s fail") })
	if _, open := checkHealthExpvars(t, url); open != 0 {
		t.Errorf("%d domains open before any traffic", open)
	}
	waitFor(t, "the cache domain to trip", func() bool {
		submit()
		v, _ := checkHealthExpvars(t, url)
		return v.State == "open"
	})
	if v, open := checkHealthExpvars(t, url); open != 1 || v.Trips != 1 || v.Recoveries != 0 {
		t.Errorf("tripped: %d open domains, cache view %+v; want 1 open, 1 trip, no recovery", open, v)
	}

	waitFor(t, "the heal", func() bool { return strings.Contains(stderr.String(), "chaos: +2s heal") })
	waitFor(t, "the cache domain to re-close", func() bool {
		submit()
		v, _ := checkHealthExpvars(t, url)
		return v.State == "closed"
	})
	if v, open := checkHealthExpvars(t, url); open != 0 || v.Trips != 1 || v.Recoveries != 1 {
		t.Errorf("healed: %d open domains, cache view %+v; want 0 open, 1 trip, 1 recovery", open, v)
	}
	if code := stop(); code != 0 {
		t.Fatalf("chaos run exited %d\n%s", code, stderr.String())
	}

	_, stderr, stop = startRun(t)
	if got := expvarInt(t, "rmrls.health_trips"); got != 0 {
		t.Errorf("second run: rmrls.health_trips = %d, want 0 (a view of the new server)", got)
	}
	if code := stop(); code != 0 {
		t.Fatalf("second run exited %d\n%s", code, stderr.String())
	}
}
