package bits

import (
	"testing"
	"testing/quick"
)

func TestBitHasCount(t *testing.T) {
	m := Bit(0) | Bit(3) | Bit(31)
	if !Has(m, 0) || !Has(m, 3) || !Has(m, 31) || Has(m, 1) {
		t.Errorf("Has misbehaves on %032b", m)
	}
	if Count(m) != 3 {
		t.Errorf("Count = %d, want 3", Count(m))
	}
}

func TestVars(t *testing.T) {
	m := Bit(2) | Bit(0) | Bit(5)
	got := Vars(m)
	want := []int{0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestVarNameIndexRoundTrip(t *testing.T) {
	for i := 0; i < MaxVars; i++ {
		if got := VarIndex(VarName(i)); got != i {
			t.Errorf("VarIndex(VarName(%d)) = %d", i, got)
		}
	}
	for _, bad := range []string{"", "A", "x-1", "x32", "1a", "?"} {
		if VarIndex(bad) != -1 {
			t.Errorf("VarIndex(%q) should be -1", bad)
		}
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		m    Mask
		want string
	}{
		{0, "1"},
		{Bit(0), "a"},
		{Bit(0) | Bit(2), "ac"},
		{Bit(1) | Bit(2) | Bit(3), "bcd"},
	}
	for _, c := range cases {
		if got := TermString(c.m); got != c.want {
			t.Errorf("TermString(%b) = %q, want %q", c.m, got, c.want)
		}
	}
}

func TestParseTermRoundTrip(t *testing.T) {
	f := func(m uint32) bool {
		m &= 1<<26 - 1 // single-letter names only
		got, ok := ParseTerm(TermString(m))
		return ok && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseTermRejects(t *testing.T) {
	for _, bad := range []string{"", "aB", "a b", "0"} {
		if _, ok := ParseTerm(bad); ok {
			t.Errorf("ParseTerm(%q) should fail", bad)
		}
	}
}
