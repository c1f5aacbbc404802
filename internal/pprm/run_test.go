package pprm

import (
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/perm"
	"repro/internal/rng"
)

// TestRunMatchesSubstituteCopyChain walks random substitution chains on
// specs of both forms (n = 1…9), side by side as Specs (SubstituteCopy)
// and as runs (AppendSubstituteRun), and checks at every step that the run
// is the one AppendRun writes for the Spec, capacities included; that its
// view equals the Spec in terms and hash; that RunMemBytes, RunCap and
// RunLen agree with MemBytes, Cap and the run's length; and that loading
// and deriving allocate nothing once the buffers have grown.
func TestRunMatchesSubstituteCopyChain(t *testing.T) {
	src := rng.New(29)
	var buf []bits.Mask
	for n := 1; n <= wordVars+3; n++ {
		sp, err := FromPerm(perm.Random(n, src))
		if err != nil {
			t.Fatal(err)
		}
		run := sp.AppendRun(nil)
		view, next := NewSpec(n), make([]uint32, 0, 1<<12)
		for step := 0; step < 40; step++ {
			if got := RunLen(append(run, 7, 7, 7), n); got != len(run) {
				t.Fatalf("n=%d step %d: RunLen %d, run has %d words", n, step, got, len(run))
			}
			if RunMemBytes(run, n) != sp.MemBytes() {
				t.Fatalf("n=%d step %d: RunMemBytes %d, MemBytes %d", n, step, RunMemBytes(run, n), sp.MemBytes())
			}
			if allocs := testing.AllocsPerRun(5, func() { view.LoadRun(run) }); allocs != 0 {
				t.Fatalf("n=%d: LoadRun allocates %v times", n, allocs)
			}
			if !view.Equal(sp) || view.Hash() != sp.Hash() {
				t.Fatalf("n=%d step %d: run view differs from its spec", n, step)
			}
			want := sp.AppendRun(nil)
			for i := range sp.Out {
				if RunCap(run, n, i) != sp.Out[i].Cap() {
					t.Fatalf("n=%d step %d: output %d recorded capacity %d, Cap %d", n, step, i, RunCap(run, n, i), sp.Out[i].Cap())
				}
			}
			if len(want) != len(run) {
				t.Fatalf("n=%d step %d: run of %d words, AppendRun writes %d", n, step, len(run), len(want))
			}
			for k := range want {
				if want[k] != run[k] {
					t.Fatalf("n=%d step %d: run word %d is %d, AppendRun writes %d", n, step, k, run[k], want[k])
				}
			}
			target := int(src.Uint64() % uint64(n))
			factors := sp.Out[target].AppendFactors(nil, target)
			if len(factors) == 0 {
				continue
			}
			f := factors[src.Uint64()%uint64(len(factors))]
			var delta int
			if allocs := testing.AllocsPerRun(5, func() {
				next, delta = AppendSubstituteRun(next[:0], run, n, target, f, &buf)
			}); allocs != 0 {
				t.Fatalf("n=%d: AppendSubstituteRun allocates %v times", n, allocs)
			}
			var wantDelta int
			sp, wantDelta = sp.SubstituteCopy(target, f)
			if delta != wantDelta {
				t.Fatalf("n=%d step %d: run delta %d, SubstituteCopy %d", n, step, delta, wantDelta)
			}
			run = append([]uint32(nil), next...)
		}
	}
	// Wide headers: a spare capacity and a term count past 16 bits.
	wide := NewSpec(18)
	for i := range wide.Out {
		wide.Out[i] = newTermSet(bits.Bit(i))
	}
	if err := wide.RestoreOutput(3, []bits.Mask{1, 8}, 70000); err != nil {
		t.Fatal(err)
	}
	many := make([]bits.Mask, 70000)
	for k := range many {
		many[k] = bits.Mask(2 * k)
	}
	if err := wide.RestoreOutput(5, many, len(many)); err != nil {
		t.Fatal(err)
	}
	run := wide.AppendRun(nil)
	for _, f := range []bits.Mask{0, 1 << 17} {
		view := NewSpec(18)
		view.LoadRun(run)
		if !view.Equal(wide) || view.Hash() != wide.Hash() || RunMemBytes(run, 18) != wide.MemBytes() ||
			RunCap(run, 18, 3) != wide.Out[3].Cap() || RunCap(run, 18, 5) != wide.Out[5].Cap() || RunLen(run, 18) != len(run) {
			t.Fatalf("wide headers: run does not stand for its spec")
		}
		next, delta := AppendSubstituteRun(nil, run, 18, 3, f, &buf)
		copied, wantDelta := wide.SubstituteCopy(3, f)
		if want := copied.AppendRun(nil); !slices.Equal(next, want) || delta != wantDelta {
			t.Fatalf("wide headers: AppendSubstituteRun(d, %s) differs from SubstituteCopy", bits.TermString(f))
		}
		wide, run = copied, next
	}
}
