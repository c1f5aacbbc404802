package bench

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"
)

// TestMain pins the laziness of the suite: nothing is built before the
// first entry-point call, and nothing is built twice. A -run selection
// that calls no entry point leaves the count at zero, so the check
// forces the build before it counts.
func TestMain(m *testing.M) {
	if builds != 0 {
		fmt.Fprintf(os.Stderr, "bench: the suite was built %d times before any test ran\n", builds)
		os.Exit(1)
	}
	code := m.Run()
	All()
	if builds != 1 {
		fmt.Fprintf(os.Stderr, "bench: the suite was built %d times, want 1\n", builds)
		code = 1
	}
	os.Exit(code)
}

// childEnv marks the re-run of the test binary in which
// TestConcurrentFirstUse does its work.
const childEnv = "BENCH_CONCURRENT_FIRST_USE"

// TestConcurrentFirstUse re-runs the test binary so that the suite's
// first build happens with eight goroutines calling every entry point at
// once, as rmrlsd's handlers do with ByName. Every caller must see the
// same entries, built once.
func TestConcurrentFirstUse(t *testing.T) {
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConcurrentFirstUse$", "-test.count=1")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	if builds != 0 {
		t.Fatalf("the suite was built %d times before the first call", builds)
	}
	const callers = 8
	seen := make([]map[string]*Benchmark, callers)
	var wg sync.WaitGroup
	for i := range seen {
		m := map[string]*Benchmark{}
		seen[i] = m
		wg.Add(1)
		go func() {
			defer wg.Done()
			note := func(bs []*Benchmark) {
				for _, b := range bs {
					if prev, ok := m[b.Name]; ok && prev != b {
						t.Errorf("%s: two entries within one caller", b.Name)
					}
					m[b.Name] = b
				}
			}
			note(All())
			note(TableIV())
			note(Examples())
			note(ExtendedFamilies())
			for _, name := range names() {
				b, err := ByName(name)
				if err != nil {
					t.Error(err)
					return
				}
				note([]*Benchmark{b})
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("the suite was built %d times, want 1", builds)
	}
	for i := 1; i < callers; i++ {
		if len(seen[i]) != len(seen[0]) {
			t.Fatalf("caller %d saw %d entries, caller 0 saw %d", i, len(seen[i]), len(seen[0]))
		}
		for name, b := range seen[0] {
			if seen[i][name] != b {
				t.Errorf("%s: caller %d got a different *Benchmark", name, i)
			}
		}
	}
}
