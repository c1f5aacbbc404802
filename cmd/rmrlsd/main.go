// Command rmrlsd serves reversible-logic synthesis over HTTP: a bounded
// job queue with interactive/batch priority classes, per-request budgets
// clamped against server-wide ceilings, a fixed worker pool running the
// RMRLS engine, and graceful checkpointing drain.
//
// Usage:
//
//	rmrlsd -addr :8053 -workers 4 -state /var/lib/rmrlsd
//
// API (see docs/SERVICE.md for the full contract):
//
//	POST /v1/jobs            submit a synthesis job (idempotent; ?wait blocks)
//	GET  /v1/jobs/{id}        job status and result
//	GET  /v1/jobs/{id}/stream JSON-lines progress until the job finishes
//	GET  /v1/healthz          liveness, queue depths, counters, fault domains
//	GET  /v1/readyz           readiness (503 while draining or a -required
//	                          fault domain is open)
//
// A full queue sheds with 429 + Retry-After; nothing queues unboundedly.
// Persistent I/O faults in the optional dependencies (answer cache,
// checkpoints, ledger, quarantine) trip per-domain circuit breakers and
// shed the feature, never the job — see docs/OPERATIONS.md, "Degraded
// modes".
// On SIGTERM/SIGINT the server stops intake (503), cancels running
// searches — each flushes a crash-safe checkpoint into -state — and writes
// a ledger of unfinished jobs; the next start resumes them exactly where
// they left off. A second signal forces exit with status 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sig, os.Stdout, os.Stderr))
}

// run is main's testable body: parse flags, start the server, block until a
// shutdown signal, drain, and return the process exit code.
func run(args []string, sig chan os.Signal, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmrlsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8053", "host:port to serve the synthesis API on")
		workers  = fs.Int("workers", 2, "worker-pool size (concurrent syntheses)")
		searchW  = fs.Int("search-workers", 0, "parallel-search core budget; every job runs the deterministic-merge engine, claiming several workers from a shallow queue and one from a deep queue (0 or 1 disables)")
		queueInt = fs.Int("queue-interactive", 64, "interactive-class queue capacity")
		queueBat = fs.Int("queue-batch", 256, "batch-class queue capacity")

		maxTime  = fs.Duration("max-time", time.Minute, "per-request time-budget ceiling")
		maxSteps = fs.Int("max-steps", 0, "per-request step-budget ceiling (0 = unlimited)")
		maxMem   = fs.Int64("max-mem", 512, "per-request memory-budget ceiling in MiB")
		maxGates = fs.Int("max-gates", 0, "per-request circuit-size ceiling (0 = unlimited)")

		stateDir  = fs.String("state", "", "directory for drain checkpoints and the job ledger (empty disables drain persistence)")
		cacheDir  = fs.String("cache-dir", "", "directory for the persistent canonical-form answer cache (empty disables it)")
		ckptEvery = fs.Duration("checkpoint-interval", 30*time.Second, "periodic checkpoint cadence for running jobs")

		drainTimeout = fs.Duration("drain-timeout", 2*time.Minute, "how long a shutdown waits for running jobs to checkpoint")
		retryAfter   = fs.Duration("retry-after", time.Second, "base Retry-After hint on shed and drain responses")
		metricsAddr  = fs.String("metrics-addr", "", "also serve /debug/vars and /debug/pprof on this host:port")

		rateLimit = fs.Float64("rate-limit", 0, "per-client submit rate (jobs/s, keyed by X-Client-ID else remote host; 0 disables)")
		rateBurst = fs.Int("rate-burst", 0, "per-client submit burst (0 = one second's worth plus one)")
		required  = fs.String("required", "", "comma-separated fault domains whose outage fails /v1/readyz (from: cache, checkpoint, ledger, quarantine)")
		chaosSpec = fs.String("chaos", "", "TESTING ONLY: in-process fault schedule, e.g. \"+2s fail cache enospc; +10s heal cache\" (prefixes cache/state map to -cache-dir/-state)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "rmrlsd: unexpected arguments:", fs.Args())
		return 1
	}

	var requiredDomains []string
	if *required != "" {
		known := make(map[string]bool)
		for _, d := range serve.DomainNames() {
			known[d] = true
		}
		for _, d := range strings.Split(*required, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				continue
			}
			if !known[d] {
				fmt.Fprintf(stderr, "rmrlsd: unknown fault domain %q (want one of %s)\n",
					d, strings.Join(serve.DomainNames(), ", "))
				return 1
			}
			requiredDomains = append(requiredDomains, d)
		}
	}

	// The chaos layer sits under the whole FS seam: every checkpoint,
	// ledger, cache, and quarantine write of this process goes through it,
	// so a schedule exercises the same degradation paths a real sick disk
	// would. Symbolic prefixes map to the configured directories.
	var serveFS snapshot.FS
	var chaosSched chaos.Schedule
	var chaosFS *chaos.FS
	if *chaosSpec != "" {
		sched, err := chaos.ParseSchedule(*chaosSpec)
		if err != nil {
			fmt.Fprintln(stderr, "rmrlsd:", err)
			return 1
		}
		names := map[string]string{}
		if *cacheDir != "" {
			names["cache"] = *cacheDir
		}
		if *stateDir != "" {
			names["state"] = *stateDir
		}
		chaosFS = chaos.New(nil)
		chaosSched = sched.Rewrite(names)
		serveFS = chaosFS
		fmt.Fprintf(stderr, "rmrlsd: CHAOS MODE: %d fault event(s) scheduled\n", len(chaosSched))
	}

	srv, err := serve.New(serve.Config{
		Workers:          *workers,
		SearchWorkers:    *searchW,
		QueueInteractive: *queueInt,
		QueueBatch:       *queueBat,
		Ceiling: core.BudgetCeiling{
			MaxTime:   *maxTime,
			MaxSteps:  *maxSteps,
			MaxMemory: *maxMem << 20,
			MaxGates:  *maxGates,
		},
		StateDir:           *stateDir,
		CacheDir:           *cacheDir,
		CheckpointInterval: *ckptEvery,
		RetryAfter:         *retryAfter,
		FS:                 serveFS,
		RequiredDomains:    requiredDomains,
		RateLimit:          *rateLimit,
		RateBurst:          *rateBurst,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "rmrlsd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "rmrlsd:", err)
		return 1
	}
	if len(chaosSched) > 0 {
		stopChaos := chaosSched.Run(chaosFS, func(ev chaos.Event) {
			fmt.Fprintln(stderr, "rmrlsd: chaos:", ev)
		})
		defer stopChaos()
	}
	for _, note := range srv.RecoveryNotes() {
		fmt.Fprintln(stderr, "rmrlsd: recovery:", note)
	}
	if n := srv.Stats().Recovered; n > 0 {
		fmt.Fprintf(stderr, "rmrlsd: recovered %d unfinished job(s) from %s\n", n, *stateDir)
	}
	srv.Start()

	if *metricsAddr != "" {
		bound, stop, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "rmrlsd:", err)
			return 1
		}
		defer stop()
		fmt.Fprintf(stderr, "# metrics: http://%s/debug/vars and /debug/pprof\n", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "rmrlsd:", err)
		return 1
	}
	httpSrv := obs.NewHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// Printed to stdout so scripts can scrape the bound address (":0" works).
	fmt.Fprintf(stdout, "rmrlsd: listening on %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "rmrlsd:", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "rmrlsd: %v — draining (signal again to force exit)\n", s)
	}

	// Second signal forces the conventional 128+SIGINT exit; the atomic
	// checkpoint protocol keeps whatever is already on disk usable.
	forced := make(chan struct{})
	go func() {
		<-sig
		close(forced)
		os.Exit(130)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(stderr, "rmrlsd: drain:", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	st := srv.Stats()
	fmt.Fprintf(stderr, "rmrlsd: drained (completed=%d interrupted=%d shed=%d)\n",
		st.Completed, st.Interrupted, st.Shed)
	select {
	case <-forced:
		return 130
	default:
	}
	return 0
}
