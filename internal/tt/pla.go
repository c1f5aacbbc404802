package tt

import (
	"fmt"
	"strings"
)

// ParsePLAPartial reads a truth table in the Berkeley PLA format used by
// the MCNC benchmark suite the paper draws rd53 from:
//
//	.i 5
//	.o 3
//	.p 32
//	00000 000
//	00001 001
//	…
//	.e
//
// Supported directives: .i, .o, .p (ignored), .ilb/.ob (ignored), .type fr
// (ignored), .e/.end. Input cubes may contain '-' (don't care), which
// expands to both values; output characters are '1', '0', and '-'/'~'.
// An output '-' or '~' is a don't-care: its bit is left out of Care and
// reads 0 in Rows. Rows not mentioned at all are fully unspecified, and
// read 0 in Rows too, the usual ON-set interpretation for .type fd files.
// Use EmbedPartial to pick a favourable completion.
func ParsePLAPartial(text string) (*PartialTable, error) {
	tab, care, err := parsePLA(text)
	if err != nil {
		return nil, err
	}
	return &PartialTable{Inputs: tab.Inputs, Outputs: tab.Outputs, Rows: tab.Rows, Care: care}, nil
}

// plaRow records where and how a minterm was first specified, so a later
// respecification can be diagnosed as a harmless duplicate or a genuine
// conflict — a conflicting file describes no function at all, reversible
// or otherwise, and must never reach the embedder.
type plaRow struct {
	line      int
	out, care uint32
}

// parsePLA is the scanner; care[x] records which output bits of row
// x were explicitly specified as 0 or 1.
func parsePLA(text string) (*Table, []uint32, error) {
	inputs, outputs := -1, -1
	var t *Table
	var care []uint32
	seen := map[uint32]plaRow{}
	ended := false
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if ended {
			return nil, nil, fmt.Errorf("pla: line %d: content after .e terminator", lineNo+1)
		}
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".i":
				// Redefinition is rejected outright: once cubes exist the
				// table shape is committed, and a silent change would index
				// rows of the wrong width.
				if inputs >= 0 {
					return nil, nil, fmt.Errorf("pla: line %d: duplicate .i directive", lineNo+1)
				}
				if len(fields) != 2 || !parsePLAInt(fields[1], &inputs) || inputs < 1 || inputs > 24 {
					return nil, nil, fmt.Errorf("pla: line %d: bad .i", lineNo+1)
				}
			case ".o":
				if outputs >= 0 {
					return nil, nil, fmt.Errorf("pla: line %d: duplicate .o directive", lineNo+1)
				}
				if len(fields) != 2 || !parsePLAInt(fields[1], &outputs) || outputs < 1 || outputs > 30 {
					return nil, nil, fmt.Errorf("pla: line %d: bad .o", lineNo+1)
				}
			case ".p", ".ilb", ".ob", ".type":
				// informative only
			case ".e", ".end":
				ended = true
			default:
				return nil, nil, fmt.Errorf("pla: line %d: unsupported directive %s", lineNo+1, fields[0])
			}
			continue
		}
		if inputs < 0 || outputs < 0 {
			return nil, nil, fmt.Errorf("pla: line %d: cube before .i/.o", lineNo+1)
		}
		if t == nil {
			t = New(inputs, outputs)
			care = make([]uint32, len(t.Rows))
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || len(fields[0]) != inputs || len(fields[1]) != outputs {
			return nil, nil, fmt.Errorf("pla: line %d: malformed cube %q", lineNo+1, line)
		}
		var outVal, careVal uint32
		for j := 0; j < outputs; j++ {
			// Like the inputs, the leftmost output character is the most
			// significant output.
			bit := uint32(1) << uint(outputs-1-j)
			switch fields[1][j] {
			case '1':
				outVal |= bit
				careVal |= bit
			case '0':
				careVal |= bit
			case '-', '~':
				// output don't care
			default:
				return nil, nil, fmt.Errorf("pla: line %d: bad output char %q", lineNo+1, fields[1][j])
			}
		}
		if err := expandPLACube(fields[0], inputs, lineNo+1, func(x uint32) error {
			if prev, ok := seen[x]; ok {
				if prev.out == outVal && prev.care == careVal {
					return fmt.Errorf("pla: line %d: row %0*b duplicates line %d",
						lineNo+1, inputs, x, prev.line)
				}
				return fmt.Errorf("pla: line %d: row %0*b conflicts with line %d",
					lineNo+1, inputs, x, prev.line)
			}
			seen[x] = plaRow{line: lineNo + 1, out: outVal, care: careVal}
			t.Rows[x] = outVal
			care[x] = careVal
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	if t == nil {
		return nil, nil, fmt.Errorf("pla: no cubes")
	}
	return t, care, nil
}

// parsePLAInt parses a small decimal without risking overflow: directive
// arguments beyond six digits are far past every supported shape, so they
// are rejected before the arithmetic could wrap.
func parsePLAInt(s string, out *int) bool {
	if len(s) == 0 || len(s) > 6 {
		return false
	}
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return true
}

// expandPLACube enumerates the minterms of an input cube. PLA convention:
// the leftmost character is the most significant input.
func expandPLACube(cube string, inputs, lineNo int, f func(uint32) error) error {
	var dcs []int
	var base uint32
	for pos, r := range cube {
		bit := uint(inputs - 1 - pos)
		switch r {
		case '1':
			base |= 1 << bit
		case '0':
		case '-', '~':
			dcs = append(dcs, int(bit))
		default:
			return fmt.Errorf("pla: line %d: bad input char %q in cube %q", lineNo, r, cube)
		}
	}
	for m := 0; m < 1<<uint(len(dcs)); m++ {
		x := base
		for i, bit := range dcs {
			if m&(1<<uint(i)) != 0 {
				x |= 1 << uint(bit)
			}
		}
		if err := f(x); err != nil {
			return err
		}
	}
	return nil
}
