// Command rmrls synthesizes reversible functions into Toffoli-gate
// cascades using the Reed–Muller reversible logic synthesis algorithm.
//
// Usage:
//
//	rmrls [flags] '{1, 0, 7, 2, 3, 4, 5, 6}'   # permutation specification
//	rmrls [flags] -pprm -n 3 spec.pprm          # PPRM file, one output per line
//	rmrls [flags] -bench rd53                   # a named paper benchmark
//
// The output is the synthesized cascade in the paper's notation, its gate
// count and quantum cost, and (where feasible) a simulation-based
// verification verdict.
//
// Interrupting a run (Ctrl-C / SIGTERM) cancels the search gracefully: the
// best-so-far circuit is printed together with the stop reason, and the
// exit status reflects whether any circuit was found. With -checkpoint the
// interrupted state is flushed to disk first, and -resume continues it in a
// later invocation exactly where it left off (see docs/OPERATIONS.md). A
// second interrupt forces immediate exit with status 130; the atomic
// checkpoint protocol guarantees the file on disk is still a complete,
// usable snapshot (the previous one, if the forced exit cut a write short).
// Exit codes: 0 a circuit was printed; 1 bad usage or input; 2 no circuit
// found within the limits; 3 verification failure; 130 forced interrupt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/bits"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fredkin"
	"repro/internal/mmd"
	"repro/internal/obs"
	"repro/internal/peephole"
	"repro/internal/perm"
	"repro/internal/pprm"
	"repro/internal/tt"
	"repro/internal/verify"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go handleSignals(sig, cancel, os.Stderr, os.Exit)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// handleSignals implements the two-stage interrupt protocol: the first
// signal cancels the synthesis context — the search stops at the next poll,
// flushes a final checkpoint if one is configured, and the best-so-far
// circuit is printed — and the second forces the process down with the
// conventional 128+SIGINT exit status for an interrupted command.
func handleSignals(sig <-chan os.Signal, cancel context.CancelFunc, stderr io.Writer, exit func(int)) {
	<-sig
	cancel()
	fmt.Fprintln(stderr, "rmrls: interrupt — stopping gracefully (interrupt again to force exit)")
	<-sig
	exit(130)
}

// run is main's testable body: it parses args, synthesizes, and returns
// the process exit code instead of calling os.Exit.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmrls", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "", "synthesize a named paper benchmark (see -list)")
		list      = fs.Bool("list", false, "list available benchmark names and exit")
		isPPRM    = fs.Bool("pprm", false, "treat the argument as a PPRM file instead of a permutation")
		isPLA     = fs.Bool("pla", false, "treat the argument as a PLA truth-table file (don't-cares allowed); the function is embedded before synthesis")
		vars      = fs.Int("n", 0, "variable count (required with -pprm)")
		timeLimit = fs.Duration("time", 30*time.Second, "synthesis time limit")
		steps     = fs.Int("steps", 0, "deterministic step limit (0 = none)")
		maxGates  = fs.Int("maxgates", 0, "maximum circuit size (0 = automatic)")
		memMB     = fs.Int64("mem", 768, "memory ceiling for queued search nodes, in MiB (0 = unlimited; paper: 768)")
		greedyK   = fs.Int("k", 4, "greedy pruning width (0 = keep all substitutions)")
		basic     = fs.Bool("basic", false, "use the basic algorithm (no heuristics)")
		nodedup   = fs.Bool("nodedup", false, "disable the transposition-table search deduplication")
		library   = fs.String("library", "gt", "gate library: gt or nct")
		first     = fs.Bool("first", false, "stop at the first solution found")
		workers   = fs.Int("workers", 0, "parallel search workers (0 = sequential search; >= 1 = det-merge rounds, identical output at every width)")
		simplify  = fs.Bool("simplify", false, "apply peephole simplification to the result")
		peep      = fs.Bool("peephole", false, "apply the window-resynthesis peephole optimizer to the result")
		lower     = fs.Bool("lower", false, "lower the result to the NCT library (ancilla-free Toffoli decomposition)")
		noverify  = fs.Bool("noverify", false, "skip the independent result verification gate (not recommended)")
		baseline  = fs.Bool("mmd", false, "also run the transformation-based baseline")
		portfolio = fs.Bool("portfolio", false, "run the parallel search portfolio + tightening (slower, better circuits)")
		cacheDir  = fs.String("cache-dir", "", "persistent canonical-form answer cache directory; repeated or relabeled requests are answered from it without a search")
		ckptPath  = fs.String("checkpoint", "", "periodically save the search state to this file (crash-safe atomic writes)")
		ckptEvery = fs.Duration("checkpoint-interval", 30*time.Second, "wall-clock interval between periodic checkpoints")
		resume    = fs.Bool("resume", false, "continue from the -checkpoint file if it holds a usable snapshot (falls back to a fresh start)")
		fredkinF  = fs.Bool("fredkin", false, "report the mixed Fredkin/Toffoli form of the result")
		diagram   = fs.Bool("diagram", false, "draw the circuit")
		trace     = fs.Bool("trace", false, "print the search trace (pops/pushes/solutions)")
		quiet     = fs.Bool("q", false, "print only the circuit")

		progress     = fs.Bool("progress", false, "show a live single-line progress display on stderr")
		metricsJSON  = fs.String("metrics-json", "", "append periodic JSON-lines progress snapshots to this file")
		metricsAddr  = fs.String("metrics-addr", "", "serve /debug/vars (expvar) and /debug/pprof on this host:port")
		metricsEvery = fs.Duration("metrics-interval", obs.DefaultInterval, "progress snapshot cadence")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Fprintf(stdout, "%-12s %2d wires  %s\n", b.Name, b.Wires, b.Description)
		}
		return 0
	}

	spec, p, pla, err := loadSpec(*benchName, *isPPRM, *isPLA, *vars, fs.Args(), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rmrls:", err)
		return 1
	}

	opts := core.DefaultOptions()
	if *basic {
		opts = core.BasicOptions()
	}
	opts.SkipVerify = *noverify
	opts.TimeLimit = *timeLimit
	opts.TotalSteps = *steps
	opts.MaxGates = *maxGates
	opts.MaxMemory = *memMB << 20
	opts.GreedyK = *greedyK
	opts.FirstSolution = *first
	opts.Workers = *workers
	if *nodedup {
		opts.Dedup = false
	}
	switch strings.ToLower(*library) {
	case "gt":
	case "nct":
		opts.Library = circuit.NCT
	default:
		fmt.Fprintf(stderr, "rmrls: unknown library %q\n", *library)
		return 1
	}
	if *trace {
		opts.Trace = func(e core.Event) { printEvent(stdout, e) }
	}
	if *resume && *ckptPath == "" {
		fmt.Fprintln(stderr, "rmrls: -resume requires -checkpoint")
		return 1
	}
	if *portfolio && *ckptPath != "" {
		// The portfolio runs several differently-configured searches; a
		// single-searcher snapshot cannot represent it.
		fmt.Fprintln(stderr, "rmrls: -checkpoint/-resume cannot be combined with -portfolio")
		return 1
	}
	if *cacheDir != "" {
		ac, err := cache.Open(*cacheDir, nil)
		if err != nil {
			// The cache is an accelerator, not a dependency: an unusable
			// directory sheds the feature and the synthesis proceeds.
			fmt.Fprintf(stdout, "# cache: disabled (%v)\n", err)
		} else {
			opts.Cache = ac
			obs.PublishView("rmrls.cache_hits", func() any { return ac.Stats().Hits })
			obs.PublishView("rmrls.cache_misses", func() any { return ac.Stats().Misses })
			obs.PublishView("rmrls.cache_derives", func() any { return ac.Stats().Derives })
		}
	}
	if *ckptPath != "" {
		opts.Checkpoint = core.Checkpoint{
			Path:     *ckptPath,
			Interval: *ckptEvery,
			OnError: func(err error) {
				fmt.Fprintln(stderr, "rmrls: checkpoint write failed (search continues):", err)
			},
		}
	}

	pipeOpts := obs.PipelineOptions{
		Progress: *progress,
		TTYOut:   stderr,
		JSONPath: *metricsJSON,
		Addr:     *metricsAddr,
		Interval: *metricsEvery,
	}
	var pipe *obs.Pipeline
	if pipeOpts.Enabled() {
		opts.Observe = obs.NewRun("rmrls")
		var err error
		pipe, err = obs.StartPipeline(opts.Observe, pipeOpts)
		if err != nil {
			fmt.Fprintln(stderr, "rmrls:", err)
			return 1
		}
		if addr := pipe.Addr(); addr != "" {
			fmt.Fprintf(stderr, "# metrics: http://%s/debug/vars and /debug/pprof\n", addr)
		}
		// Stop is idempotent: the eager call below releases the progress
		// line before the circuit prints; the defer covers early returns.
		defer pipe.Stop()
	}

	var res core.Result
	switch {
	case *portfolio:
		res = core.SynthesizePortfolioContext(ctx, spec, opts, 4)
	case *resume:
		var err error
		res, err = core.ResumeContext(ctx, spec, opts, *ckptPath)
		switch {
		case err == nil:
			fmt.Fprintf(stderr, "# resumed from checkpoint %s\n", *ckptPath)
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet: a fresh start is exactly what -resume in a
			// retry loop wants, silently.
			res = core.SynthesizeContext(ctx, spec, opts)
		default:
			// Damaged or mismatched snapshot: graceful degradation. Say
			// why, then start over; the periodic checkpoints of the fresh
			// run will overwrite the unusable file.
			fmt.Fprintf(stderr, "rmrls: cannot resume from %s (%v); starting fresh\n", *ckptPath, err)
			res = core.SynthesizeContext(ctx, spec, opts)
		}
	default:
		res = core.SynthesizeContext(ctx, spec, opts)
	}
	pipe.Stop() // flush the final snapshots before printing the result
	if *ckptPath != "" {
		switch {
		case !res.StopReason.Resumable():
			// The run is finished — there is nothing left to continue, and a
			// stale snapshot would confuse the next -resume.
			os.Remove(*ckptPath)
		case res.Checkpoints > 0:
			fmt.Fprintf(stderr, "# checkpoint saved to %s; rerun with -resume to continue\n", *ckptPath)
		}
	}
	if res.Err != nil {
		var verr *verify.Error
		if errors.As(res.Err, &verr) {
			// The engine's always-on gate withdrew the circuit: the search
			// produced a cascade that does not realize the specification.
			// This is an engine bug, not a property of the input — report
			// the counterexample and the rejected cascade for triage.
			fmt.Fprintln(stderr, "rmrls: VERIFICATION FAILED:", verr)
			fmt.Fprintln(stderr, "rmrls: rejected cascade:", verr.Circuit)
			return 3
		}
		fmt.Fprintln(stderr, "rmrls:", res.Err)
		return 2
	}
	if !res.Found {
		// A script must be able to tell "no circuit" from success, and a
		// human must be able to tell which limit stopped the search.
		fmt.Fprintf(stderr, "rmrls: no circuit found within limits (stop=%s, %d steps, %d restarts, %v)\n",
			res.StopReason, res.Steps, res.Restarts, res.Elapsed.Round(time.Millisecond))
		return 2
	}
	if res.StopReason == core.StopCanceled {
		fmt.Fprintf(stderr, "rmrls: interrupted; printing best-so-far circuit\n")
	}
	c := res.Circuit
	// Post-search transforms each re-verify through the independent oracle:
	// a stage that breaks the realized permutation is named in the failure,
	// so a miscompiling optimizer cannot silently ship a wrong circuit.
	stageCheck := func(stage verify.Stage, before, after *circuit.Circuit) bool {
		if opts.SkipVerify || !verify.Feasible(spec.N) {
			return true
		}
		if err := verify.Transform(stage, before, after); err != nil {
			fmt.Fprintln(stderr, "rmrls: VERIFICATION FAILED:", err)
			return false
		}
		return true
	}
	if *simplify {
		sc := c.Simplify()
		if !stageCheck(verify.StageSimplify, c, sc) {
			return 3
		}
		c = sc
	}
	if *peep {
		pc := peephole.New().Optimize(c)
		if !stageCheck(verify.StagePeephole, c, pc) {
			return 3
		}
		c = pc
	}
	if *lower {
		lc, err := decomp.DecomposeCircuit(c)
		if err != nil {
			fmt.Fprintln(stderr, "rmrls:", err)
			return 2
		}
		if !stageCheck(verify.StageDecomp, c, lc) {
			return 3
		}
		c = lc
	}
	// For embedded PLA inputs the permutation equivalence above is stricter
	// than needed; what the user actually asked for is the partial table.
	// Check the final cascade against it directly, care bits only.
	plaOK := false
	if pla != nil && !opts.SkipVerify && verify.Feasible(c.Wires) {
		if err := verify.PLA(verify.StageEmbed, c, pla.emb, pla.pt); err != nil {
			fmt.Fprintln(stderr, "rmrls: VERIFICATION FAILED:", err)
			return 3
		}
		plaOK = true
	}
	fmt.Fprintln(stdout, c)
	if !*quiet {
		fmt.Fprintf(stdout, "# gates=%d quantum-cost=%d steps=%d nodes=%d elapsed=%v stop=%s\n",
			c.Len(), c.QuantumCost(), res.Steps, res.Nodes, res.Elapsed.Round(time.Microsecond), res.StopReason)
		if res.Workers > 0 {
			fmt.Fprintf(stdout, "# parallel: %d workers (det-merge)\n", res.Workers)
		}
		if probes := res.DedupHits + res.DedupMisses; probes > 0 {
			fmt.Fprintf(stdout, "# dedup: %d/%d duplicate states pruned (%.1f%% hit rate, %d evictions)\n",
				res.DedupHits, probes, 100*float64(res.DedupHits)/float64(probes), res.DedupEvictions)
		}
		if opts.Cache != nil && res.CanonicalClass != 0 {
			if res.CacheHit {
				fmt.Fprintf(stdout, "# cache: hit class=%016x (answered by conjugation, no search)\n", res.CanonicalClass)
			} else if st := opts.Cache.Stats(); st.Stores > 0 {
				fmt.Fprintf(stdout, "# cache: miss class=%016x (result stored for the next run)\n", res.CanonicalClass)
			} else {
				fmt.Fprintf(stdout, "# cache: miss class=%016x\n", res.CanonicalClass)
			}
		}
		if res.Verified {
			fmt.Fprintln(stdout, "# verified: circuit realizes the specification")
		}
		if plaOK {
			fmt.Fprintln(stdout, "# verified: circuit matches the PLA on every care bit")
		}
	}

	if *diagram {
		fmt.Fprintln(stdout, c.Diagram())
	}
	if *fredkinF {
		mixed := fredkin.Recognize(c)
		fmt.Fprintf(stdout, "# fredkin form (%d gates, %d fredkin): %s\n",
			mixed.Len(), mixed.FredkinCount(), mixed)
	}
	if *baseline && p != nil {
		b := mmd.Synthesize(p, mmd.Bidirectional)
		fmt.Fprintf(stdout, "# baseline (Miller/Maslov/Dueck bidirectional): %d gates, cost %d\n",
			b.Len(), b.QuantumCost())
	}
	return 0
}

// plaInput carries the parsed partial truth table and its reversible
// embedding alongside the compiled spec, so the final cascade can be
// checked against what the user actually wrote (care bits only) rather
// than only against the stricter embedded permutation.
type plaInput struct {
	pt  *tt.PartialTable
	emb *tt.Embedding
}

// loadSpec resolves the input modes to a PPRM expansion (and, where
// available, a permutation for verification; for -pla also the original
// partial table and embedding for the don't-care-aware check). A -pla
// load reports its embedding on stderr.
func loadSpec(benchName string, isPPRM, isPLA bool, vars int, args []string, stderr io.Writer) (*pprm.Spec, perm.Perm, *plaInput, error) {
	if benchName != "" {
		b, err := bench.ByName(benchName)
		if err != nil {
			return nil, nil, nil, err
		}
		spec, err := b.PPRMSpec()
		return spec, b.Spec, nil, err
	}
	if len(args) != 1 {
		return nil, nil, nil, fmt.Errorf("expected exactly one specification argument (or -bench/-list)")
	}
	arg := args[0]
	if isPLA {
		text, err := os.ReadFile(arg)
		if err != nil {
			return nil, nil, nil, err
		}
		pt, err := tt.ParsePLAPartial(string(text))
		if err != nil {
			return nil, nil, nil, err
		}
		emb, _, err := tt.EmbedPartial(pt, tt.PLAEmbedTries, tt.PLAEmbedSeed)
		if err != nil {
			return nil, nil, nil, err
		}
		fmt.Fprintf(stderr, "# embedded: %d wires, %d garbage outputs, %d constant inputs, %d don't-care bits assigned\n",
			emb.Wires, emb.GarbageOutputs, emb.ConstantInputs, pt.DontCareBits())
		p := perm.Perm(emb.Spec)
		spec, err := pprm.FromPerm(p)
		return spec, p, &plaInput{pt: pt, emb: emb}, err
	}
	if isPPRM {
		if vars < 1 || vars > bits.MaxVars {
			return nil, nil, nil, fmt.Errorf("-pprm requires -n between 1 and %d", bits.MaxVars)
		}
		text, err := os.ReadFile(arg)
		if err != nil {
			return nil, nil, nil, err
		}
		spec, err := pprm.Parse(vars, string(text))
		if err != nil {
			return nil, nil, nil, err
		}
		if vars <= 22 {
			p := spec.ToPerm()
			if err := p.Validate(); err != nil {
				return nil, nil, nil, fmt.Errorf("PPRM does not describe a reversible function: %v", err)
			}
			return spec, p, nil, nil
		}
		return spec, nil, nil, nil
	}
	text := arg
	if data, err := os.ReadFile(arg); err == nil {
		text = string(data)
	}
	p, err := perm.Parse(text)
	if err != nil {
		return nil, nil, nil, err
	}
	spec, err := pprm.FromPerm(p)
	return spec, p, nil, err
}

func printEvent(w io.Writer, e core.Event) {
	kind := map[core.EventKind]string{
		core.EventPush:     "push",
		core.EventPop:      "pop ",
		core.EventSolution: "SOLN",
		core.EventRestart:  "rstr",
	}[e.Kind]
	sub := "-"
	if e.Target >= 0 {
		sub = fmt.Sprintf("%s=%s^%s", bits.VarName(e.Target), bits.VarName(e.Target), bits.TermString(e.Factor))
	}
	fmt.Fprintf(w, "# %s id=%-6d parent=%-6d depth=%-2d %-14s terms=%-3d elim=%-3d prio=%.3f\n",
		kind, e.ID, e.Parent, e.Depth, sub, e.Terms, e.Elim, e.Priority)
}
