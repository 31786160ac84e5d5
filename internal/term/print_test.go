package term_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"clare/internal/term"
	"clare/internal/termgen"
)

// legacyString is the printer as it stood before term.Write: every
// scalar through its own String, compounds through a strings.Builder,
// machine variables through fmt. It is the differential oracle the
// writer-based printer must match byte for byte.
func legacyString(t term.Term) string {
	t = term.Deref(t)
	switch t := t.(type) {
	case term.Atom:
		return legacyQuote(string(t))
	case term.Int:
		return strconv.FormatInt(int64(t), 10)
	case term.Float:
		s := strconv.FormatFloat(float64(t), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *term.Var:
		if t.Name != "" && t.Name != "_" {
			return t.Name
		}
		return fmt.Sprintf("_G%d", t.ID())
	}
	var b strings.Builder
	legacyWrite(&b, t)
	return b.String()
}

func legacyWrite(b *strings.Builder, t term.Term) {
	t = term.Deref(t)
	c, ok := t.(*term.Compound)
	if !ok {
		b.WriteString(legacyString(t))
		return
	}
	if c.Functor == term.ConsFunctor && len(c.Args) == 2 {
		b.WriteByte('[')
		legacyWrite(b, c.Args[0])
		t := term.Deref(c.Args[1])
		for {
			if t == term.NilAtom {
				b.WriteByte(']')
				return
			}
			if cc, ok := t.(*term.Compound); ok && cc.Functor == term.ConsFunctor && len(cc.Args) == 2 {
				b.WriteByte(',')
				legacyWrite(b, cc.Args[0])
				t = term.Deref(cc.Args[1])
				continue
			}
			b.WriteByte('|')
			legacyWrite(b, t)
			b.WriteByte(']')
			return
		}
	}
	switch c.Functor {
	case ",", ";", "->", ":-":
		if len(c.Args) == 2 {
			b.WriteByte('(')
			legacyWrite(b, c.Args[0])
			b.WriteString(c.Functor)
			legacyWrite(b, c.Args[1])
			b.WriteByte(')')
			return
		}
	}
	b.WriteString(legacyQuote(c.Functor))
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		legacyWrite(b, a)
	}
	b.WriteByte(')')
}

func legacyQuote(s string) string {
	bare := s != ""
	switch {
	case s == "[]" || s == "{}" || s == "!" || s == ";":
	case s != "" && s[0] >= 'a' && s[0] <= 'z':
		for _, r := range s {
			if !(r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				bare = false
			}
		}
	default:
		for _, r := range s {
			if !strings.ContainsRune("+-*/\\^<>=~:.?@#&$", r) {
				bare = false
			}
		}
		bare = bare && s != "."
	}
	if bare {
		return s
	}
	var b strings.Builder
	b.WriteByte('\'')
	for _, r := range s {
		switch r {
		case '\'':
			b.WriteString(`\'`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('\'')
	return b.String()
}

// spice rewrites a generated term's numbers into the awkward cases
// termgen's small non-negative pools never produce: negative integers,
// and floats that print with exponents, as integers, or not as numbers.
func spice(t term.Term) term.Term {
	switch t := t.(type) {
	case term.Int:
		if t%2 == 1 {
			return -t * 1000003
		}
	case term.Float:
		odd := []float64{-0.5, 1e21, 1.5e-7, -2, 3, math.Inf(1), -1e100, 0.1}
		return term.Float(odd[int(t*2)%len(odd)])
	case *term.Compound:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = spice(a)
		}
		return &term.Compound{Functor: t.Functor, Args: args}
	}
	return t
}

// TestWriteMatchesLegacyPrinter: for generated clauses — quoted atoms
// and functors, control-operator bodies, open and closed lists, negative
// numbers, floats — term.Write into a bufio.Writer, String and fmt's %s
// all spell exactly what the pre-Write printer spelled.
func TestWriteMatchesLegacyPrinter(t *testing.T) {
	g := termgen.NewWithConfig(7, termgen.Config{
		Functors: []string{"f", "g", ",", ";", "->", ":-", "Quoted F", "it's", "[]", "+", ".", "é"},
		Atoms: []string{"a", "[]", "{}", "!", ";", "Weird atom", "don't", `back\slash`,
			"tab\there", "new\nline", "é", "\xff\xfe", "", "+-", ".", "_x", "aB_9", "9lives"},
	})
	bound := term.NewVar("B")
	bound.Ref = term.Atom("bound")
	fixed := []term.Term{
		term.NewVar(""), term.NewVar("_"), bound,
		term.ListTail(term.Atom("b"), term.Atom("a")),
		term.ListTail(term.Int(-3), term.Int(1), term.Int(2)),
		term.New("-", term.Int(-1)),
		term.Float(math.NaN()), term.Float(-0.0), term.Float(5e-324),
		term.Int(math.MinInt64),
	}
	var clauses []term.Term
	for _, f := range fixed {
		clauses = append(clauses, term.New("p", f))
	}
	for i := 0; i < 2000; i++ {
		head := spice(g.Goal("p", i%4))
		body := term.New(",", spice(g.Term(2)),
			term.New(";", spice(g.Term(2)), term.New("->", spice(g.Term(1)), term.Atom("true"))))
		clauses = append(clauses, head, term.New(":-", head, body))
	}

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, c := range clauses {
		want := legacyString(c)
		buf.Reset()
		term.Write(w, c)
		w.Flush()
		if got := buf.String(); got != want {
			t.Fatalf("Write = %q, legacy printer %q", got, want)
		}
		if got := c.String(); got != want {
			t.Fatalf("String = %q, legacy printer %q", got, want)
		}
		if got := fmt.Sprintf("%s", c); got != want {
			t.Fatalf("%%s = %q, legacy printer %q", got, want)
		}
	}
}

// TestWriteAllocs: writing a term into a buffered writer allocates
// nothing; the printer's scratch for numbers lives on the stack.
func TestWriteAllocs(t *testing.T) {
	c := term.New("p", term.Atom("Quoted atom"), term.Int(-123456789), term.Float(2.5e-9),
		term.NewVar(""), term.ListTail(term.NewVar("T"), term.Atom("a"), term.Int(7)))
	w := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() { term.Write(w, c) }); n != 0 {
		t.Fatalf("term.Write allocates %.1f times per term, want 0", n)
	}
}
