// Command loadgen exercises a running rmrlsd with a stream of synthesis
// requests and reports per-class latency percentiles (cold answers,
// answer-cache hits and replies that joined an existing job apart, at
// microsecond precision) plus shed, retry,
// timeout, and error rates — the harness behind the service's backpressure
// acceptance check: under overload, interactive p99 stays bounded while
// excess load sheds with 429 instead of queueing unboundedly.
//
// Usage:
//
//	loadgen -addr localhost:8053 -n 200 -c 16 -batch-frac 0.5
//	loadgen -addr localhost:8053 -burst -expect-shed   # overload probe
//
// Each request is a uniformly random reversible function on -vars
// variables (seeded, so runs are reproducible) submitted with wait=true;
// -bench substitutes a named paper benchmark instead. 429/503 responses
// are retried up to -retries times honoring Retry-After; a request still
// shed after its retry budget is counted (that is the point of an overload
// probe), not an error.
//
// Every solved response is independently re-checked client-side: the
// returned cascade is parsed, re-simulated, and compared against the
// requested function, and the reported gate count is compared against the
// parsed circuit — a differential check of the server's whole pipeline
// (including serialization) that shares no state with the server's own
// verification gate. Exit status: 0 on success, 1 if any request errored,
// any response failed the client-side check, or -expect-shed saw no
// shedding.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/rng"
	"repro/internal/verify"
)

type request struct {
	Spec   specInput `json:"spec"`
	Class  string    `json:"class,omitempty"`
	Budget budget    `json:"budget,omitempty"`
	Wait   bool      `json:"wait"`
}

type specInput struct {
	Bench string `json:"bench,omitempty"`
	Perm  string `json:"perm,omitempty"`
}

type budget struct {
	TimeMillis int64 `json:"time_ms,omitempty"`
	Steps      int   `json:"steps,omitempty"`
}

// jobReply is the subset of the server's job view loadgen inspects.
type jobReply struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	Deduplicated bool   `json:"deduplicated"`
	Result       *struct {
		Found    bool   `json:"found"`
		Stop     string `json:"stop"`
		Circuit  string `json:"circuit"`
		Gates    int    `json:"gates"`
		CacheHit bool   `json:"cache_hit"`
	} `json:"result"`
	Error struct {
		Field   string `json:"field"`
		Message string `json:"message"`
	} `json:"error"`
}

// outcome classifies one request's final disposition.
type outcome int

const (
	outSolved outcome = iota
	outNoCircuit
	outShedOut    // still shed after all retries
	outVerifyFail // 200 whose circuit failed the client-side re-check
	outError
	numOutcomes
)

// reply is one request's final disposition as the client experienced it.
type reply struct {
	outcome outcome
	latency time.Duration // end to end, including retry waits
	hit     bool          // answered from the server's answer cache
	joined  bool          // joined an identical job the server already held
	sheds   int           // 429s seen
	retries int           // retries spent
}

// classStats accumulates one scheduling class's results. Latencies of
// successful (solved or budget-exhausted) requests are kept apart by how
// they were answered: a cache hit skips the search and costs a fraction of
// a cold answer, and a reply that joined an existing job (the job view's
// deduplicated) waited for someone else's search, or for none, so one
// blended percentile would describe none of them.
type classStats struct {
	cold, hit, joined []time.Duration
	counts            [numOutcomes]int
	sheds             int // 429s observed (including retried-through ones)
	retries           int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "localhost:8053", "rmrlsd host:port")
		n         = fs.Int("n", 100, "total requests to send")
		c         = fs.Int("c", 8, "concurrent clients")
		batchFrac = fs.Float64("batch-frac", 0.5, "fraction of requests submitted as batch class")
		vars      = fs.Int("vars", 4, "variable count of the random reversible functions")
		steps     = fs.Int("steps", 50000, "per-request step budget (0 = server default)")
		timeMS    = fs.Int64("time-ms", 10000, "per-request time budget in ms (0 = server default)")
		benchName = fs.String("bench", "", "submit this named benchmark instead of random functions")
		retries   = fs.Int("retries", 3, "retry budget per request on 429/503")
		backoff   = fs.Duration("backoff", 200*time.Millisecond, "fallback retry delay when the server sends no Retry-After")
		burst     = fs.Bool("burst", false, "fire every request at once (ignore -c) to probe shedding")
		seed      = fs.Uint64("seed", 1, "random-function seed (reproducible workloads)")
		expShed   = fs.Bool("expect-shed", false, "exit 1 unless at least one request was shed with 429")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	// Pre-generate the workload so the generator RNG is outside the timed
	// region and identical seeds give identical request streams.
	type workItem struct {
		body  []byte
		class string
		want  perm.Perm // expected function for the client-side re-check (nil = skip)
		wires int
	}
	// A bench workload checks every response against the benchmark's own
	// tabulated function; random workloads against the submitted permutation.
	var benchWant perm.Perm
	benchWires := 0
	if *benchName != "" {
		if b, err := bench.ByName(*benchName); err == nil {
			benchWant, benchWires = b.Spec, b.Wires
		}
	}
	src := rng.New(*seed)
	work := make([]workItem, *n)
	for i := range work {
		req := request{Wait: true, Budget: budget{TimeMillis: *timeMS, Steps: *steps}}
		if i < int(float64(*n)**batchFrac) {
			req.Class = "batch"
		}
		item := workItem{want: benchWant, wires: benchWires}
		if *benchName != "" {
			req.Spec.Bench = *benchName
		} else {
			p := perm.Random(*vars, src)
			req.Spec.Perm = p.String()
			item.want, item.wires = p, *vars
		}
		b, err := json.Marshal(&req)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return 1
		}
		item.body, item.class = b, req.Class
		work[i] = item
	}

	url := "http://" + *addr + "/v1/jobs"
	client := &http.Client{Timeout: time.Duration(*timeMS)*time.Millisecond + 30*time.Second}

	workers := *c
	if *burst {
		workers = *n
	}
	if workers > *n {
		workers = *n
	}

	var mu sync.Mutex
	stats := map[string]*classStats{
		"interactive": {},
		"batch":       {},
	}

	record := func(class string, r reply) {
		if class == "" {
			class = "interactive"
		}
		mu.Lock()
		defer mu.Unlock()
		st := stats[class]
		st.counts[r.outcome]++
		st.sheds += r.sheds
		st.retries += r.retries
		switch {
		case r.outcome != outSolved && r.outcome != outNoCircuit:
		case r.joined:
			st.joined = append(st.joined, r.latency)
		case r.hit:
			st.hit = append(st.hit, r.latency)
		default:
			st.cold = append(st.cold, r.latency)
		}
	}

	next := make(chan workItem)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range next {
				record(item.class, send(client, url, item.body, item.want, item.wires, *retries, *backoff, stderr))
			}
		}()
	}
	for _, item := range work {
		next <- item
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	failed := report(stdout, stats, elapsed)
	totalSheds := stats["interactive"].sheds + stats["batch"].sheds
	if *expShed && totalSheds == 0 {
		fmt.Fprintln(stderr, "loadgen: expected shedding but saw no 429s")
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// send submits one request, retrying through 429/503 with the server's
// Retry-After hint, and returns how it ended. Solved responses are
// re-verified client-side against want (when non-nil and tabulable).
func send(client *http.Client, url string, body []byte, want perm.Perm, wires int, retries int, backoff time.Duration, stderr io.Writer) reply {
	start := time.Now()
	var r reply
	done := func(o outcome) reply {
		r.outcome, r.latency = o, time.Since(start)
		return r
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return done(outError)
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()

		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted, http.StatusUnprocessableEntity:
			var jr jobReply
			if err := json.Unmarshal(data, &jr); err != nil {
				fmt.Fprintln(stderr, "loadgen: bad response:", err)
				return done(outError)
			}
			r.joined = jr.Deduplicated
			if jr.Result != nil && jr.Result.Found {
				r.hit = jr.Result.CacheHit
				if want != nil && verify.Feasible(wires) && !verifyReply(&jr, want, wires, stderr) {
					return done(outVerifyFail)
				}
				return done(outSolved)
			}
			return done(outNoCircuit)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.StatusCode == http.StatusTooManyRequests {
				r.sheds++
			}
			if attempt >= retries {
				if resp.StatusCode == http.StatusTooManyRequests {
					return done(outShedOut)
				}
				return done(outError)
			}
			r.retries++
			time.Sleep(retryDelay(resp, backoff))
		default:
			fmt.Fprintf(stderr, "loadgen: HTTP %d: %s\n", resp.StatusCode, bytes.TrimSpace(data))
			return done(outError)
		}
	}
}

// verifyReply re-simulates the returned cascade and checks it realizes the
// requested function, and that the reported gate count matches the parsed
// circuit. This is the client half of the differential check: it consumes
// only what came over the wire, so a serialization bug, a wrong-but-
// "verified" server answer, or a gate-count lie all surface here.
func verifyReply(jr *jobReply, want perm.Perm, wires int, stderr io.Writer) bool {
	var c *circuit.Circuit
	if jr.Result.Gates == 0 {
		// The empty cascade renders as "(identity)", which the parser
		// (by design) does not accept; it realizes the identity.
		c = circuit.New(wires)
	} else {
		var err error
		c, err = circuit.Parse(wires, jr.Result.Circuit)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: job %s: unparseable circuit %q: %v\n", jr.ID, jr.Result.Circuit, err)
			return false
		}
	}
	if c.Len() != jr.Result.Gates {
		fmt.Fprintf(stderr, "loadgen: job %s: reported gates=%d but returned circuit has %d\n",
			jr.ID, jr.Result.Gates, c.Len())
		return false
	}
	got, verr := verify.Simulate(verify.StageClient, c)
	if verr != nil {
		fmt.Fprintf(stderr, "loadgen: job %s: %v\n", jr.ID, verr)
		return false
	}
	if !got.Equal(want) {
		fmt.Fprintf(stderr, "loadgen: job %s: returned circuit does not realize the requested function\n", jr.ID)
		return false
	}
	return true
}

// retryDelay honors the server's Retry-After hint, falling back to the
// client-side backoff when absent or unparsable.
func retryDelay(resp *http.Response, fallback time.Duration) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

// percentile picks the p-quantile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Floor(p * (float64(n) - 0.51)))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// report prints the per-class summary and returns whether any request
// ultimately failed (errors or client-side verification failures).
func report(w io.Writer, stats map[string]*classStats, elapsed time.Duration) bool {
	failed := false
	total := 0
	for _, class := range []string{"interactive", "batch"} {
		st := stats[class]
		sent := 0
		for _, c := range st.counts {
			sent += c
		}
		total += sent
		if sent == 0 {
			continue
		}
		fmt.Fprintf(w, "%-11s  sent=%-4d solved=%-4d nocircuit=%-3d shed=%-3d verifyfail=%-3d errors=%-3d retries=%-3d\n",
			class, sent, st.counts[outSolved], st.counts[outNoCircuit],
			st.counts[outShedOut], st.counts[outVerifyFail], st.counts[outError], st.retries)
		for _, kind := range []struct {
			name string
			lat  []time.Duration
		}{{"cold", st.cold}, {"hit", st.hit}, {"joined", st.joined}} {
			if len(kind.lat) == 0 {
				continue
			}
			// Microseconds: a cache hit is well under a millisecond.
			sort.Slice(kind.lat, func(i, j int) bool { return kind.lat[i] < kind.lat[j] })
			fmt.Fprintf(w, "%-11s  %-6s n=%-4d p50=%v p90=%v p99=%v\n", class, kind.name, len(kind.lat),
				percentile(kind.lat, 0.50).Round(time.Microsecond),
				percentile(kind.lat, 0.90).Round(time.Microsecond),
				percentile(kind.lat, 0.99).Round(time.Microsecond))
		}
		if st.counts[outError] > 0 || st.counts[outVerifyFail] > 0 {
			failed = true
		}
	}
	if elapsed > 0 && total > 0 {
		fmt.Fprintf(w, "total        %d requests in %v (%.1f req/s)\n",
			total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	}
	return failed
}
