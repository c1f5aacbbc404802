package tt

import (
	"strings"
	"testing"
)

const rd53PLA = `
# rd53: count the ones of five inputs
.i 5
.o 3
.type fr
00000 000
00001 001
00010 001
00100 001
01000 001
10000 001
.e
`

func TestParsePLABasics(t *testing.T) {
	tab, err := ParsePLAPartial(rd53PLA)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Inputs != 5 || tab.Outputs != 3 {
		t.Fatalf("shape %d→%d", tab.Inputs, tab.Outputs)
	}
	// PLA convention: leftmost input char is the MSB.
	if tab.Rows[0] != 0 {
		t.Errorf("row 00000 = %d", tab.Rows[0])
	}
	if tab.Rows[1] != 1 { // "00001" = x0
		t.Errorf("row 00001 = %d", tab.Rows[1])
	}
	if tab.Rows[16] != 1 { // "10000" = x4
		t.Errorf("row 10000 = %d", tab.Rows[16])
	}
	if tab.Rows[3] != 0 { // unspecified row defaults to 0
		t.Errorf("unspecified row = %d", tab.Rows[3])
	}
}

func TestParsePLADontCareInputs(t *testing.T) {
	tab, err := ParsePLAPartial(".i 3\n.o 1\n1-1 1\n.e")
	if err != nil {
		t.Fatal(err)
	}
	// "1-1": MSB=1, LSB=1, middle either → rows 101 (5) and 111 (7).
	for x, want := range map[int]uint32{5: 1, 7: 1, 1: 0, 4: 0} {
		if tab.Rows[x] != want {
			t.Errorf("row %03b = %d, want %d", x, tab.Rows[x], want)
		}
	}
}

func TestParsePLAErrors(t *testing.T) {
	cases := []string{
		"",                            // empty
		".i 2\n01 1",                  // cube before .o
		".i 2\n.o 1\n0 1",             // wrong cube width
		".i 2\n.o 1\n0x 1",            // bad input char
		".i 2\n.o 1\n01 x",            // bad output char
		".i 2\n.o 1\n01 1\n01 1",      // duplicate row
		".i 2\n.o 1\n-- 1\n0- 0",      // overlap via don't cares
		".qq 3",                       // unknown directive
		".i 0\n.o 1\n 1",              // bad .i
		".i 1\n.o 1\n0 1\n.i 2\n01 1", // .i redefined after a cube
		".i 2\n.i 2\n.o 1\n01 1",      // duplicate .i
		".i 2\n.o 1\n.o 1\n01 1",      // duplicate .o
		".i 99999999999999999\n.o 1",  // .i overflow
		".i 2\n.o 1\n01 1\n.e\n10 1",  // cube after terminator
		".i 2\n.o 1\n01 1\n.e\n.i 2",  // directive after terminator
	}
	for _, c := range cases {
		if _, err := ParsePLAPartial(c); err == nil {
			t.Errorf("ParsePLAPartial(%q) should fail", c)
		}
	}
}

// TestParsePLADiagnostics checks that respecified rows are diagnosed with
// both line numbers, distinguishing harmless duplicates from genuine
// conflicts (a conflicting file describes no function at all).
func TestParsePLADiagnostics(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{".i 2\n.o 1\n01 1\n01 1", []string{"line 4", "duplicates line 3"}},
		{".i 2\n.o 1\n01 1\n01 0", []string{"line 4", "conflicts with line 3"}},
		{".i 2\n.o 1\n-- 1\n0- 0", []string{"line 4", "conflicts with line 3"}},
		{".i 1\n.o 1\n0 1\n.i 2\n01 1", []string{"line 4", "duplicate .i"}},
		{".i 2\n.o 1\n01 1\n.e\n10 1", []string{"line 5", "after .e"}},
		{".i 2\n.o 1\n0z 1", []string{"line 3", "bad input char"}},
	}
	for _, c := range cases {
		_, err := ParsePLAPartial(c.text)
		if err == nil {
			t.Errorf("ParsePLAPartial(%q) should fail", c.text)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParsePLAPartial(%q) error %q missing %q", c.text, err, want)
			}
		}
	}
}

func TestParsePLAThenEmbed(t *testing.T) {
	// Full pipeline: PLA text → table → reversible spec.
	var b strings.Builder
	b.WriteString(".i 3\n.o 1\n")
	b.WriteString("111 1\n110 1\n101 1\n011 1\n") // majority
	b.WriteString("000 0\n001 0\n010 0\n100 0\n") // no don't-cares
	b.WriteString(".e\n")
	tab, err := ParsePLAPartial(b.String())
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := EmbedPartial(tab, PLAEmbedTries, PLAEmbedSeed)
	if err != nil {
		t.Fatal(err)
	}
	if e.Wires != 3 {
		t.Errorf("majority embedding uses %d wires, want 3", e.Wires)
	}
}
