package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckPassesOnItsOwnRecordAndCatchesAMovedCount records tiny search
// and parallel reports, checks that -check accepts each unchanged, and that
// it rejects each once one deterministic count is edited.
func TestCheckPassesOnItsOwnRecordAndCatchesAMovedCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		field string // a deterministic JSON field to tamper with
	}{
		{"search", []string{"-skip-examples", "-table1", "4", "-random4", "1", "-steps", "1500"}, `"nodes_created": `},
		{"parallel", []string{"-parallel", "-table1", "3", "-random4", "1", "-steps", "1000"}, `"total_gates": `},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "report.json")
			var out, errb bytes.Buffer
			if code := run(append(tc.args, "-out", file), &out, &errb); code != 0 {
				t.Fatalf("recording exited %d: %s", code, errb.String())
			}
			out.Reset()
			errb.Reset()
			if code := run([]string{"-check", file}, &out, &errb); code != 0 {
				t.Fatalf("-check on an unchanged report exited %d:\n%s", code, errb.String())
			}
			if !strings.Contains(out.String(), "every deterministic field matches") {
				t.Errorf("-check printed no verdict:\n%s", out.String())
			}

			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(data, []byte(tc.field))
			if i < 0 {
				t.Fatalf("report has no %s field", tc.field)
			}
			tampered := append(append(append([]byte(nil), data[:i+len(tc.field)]...), '9'), data[i+len(tc.field):]...)
			if err := os.WriteFile(file, tampered, 0o644); err != nil {
				t.Fatal(err)
			}
			errb.Reset()
			if code := run([]string{"-check", file}, &out, &errb); code != 1 {
				t.Fatalf("-check on a tampered report exited %d, want 1", code)
			}
			if !strings.Contains(errb.String(), "differ") {
				t.Errorf("-check did not report the difference:\n%s", errb.String())
			}
		})
	}
}
