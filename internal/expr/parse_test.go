package expr

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse: it must never panic, and any
// tree it accepts must print, through String, as source that parses
// back to the same tree.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		// quiz's optimization questions
		"a*b", "(a + b) + c",
		// optsim's witness programs
		"a*b + c", "((a + b) + c) + d", "a/b", "a - a", "a/a", "a + 0", "a*0",
		"a*b - c", "(a*b + c*d) + e", "a*1e-300*1e-10*b", "sqrt(a*a + b*b)",
		// examples/autotune
		"a + b", "(a + b)*(a - b)", "(a - b)/(a + b)", "a*b + a*b*a*b",
		// other shapes the grammar allows, and some it rejects
		"fma(x, y, -z)", "--a/-(b - c)", "SQRT(2.5e+10)", ".5*x_1", "", "(", "sqrt(a, b)", "1e400",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		printed := n.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not parse: %v", src, printed, err)
		}
		if !reflect.DeepEqual(back, n) {
			t.Fatalf("Parse(%q) = %#v, printed as %q, parses back as %#v", src, n, printed, back)
		}
	})
}
