package term

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Writer is what the printer renders into: a *strings.Builder for String,
// or a *bufio.Writer when a reply line goes straight onto a connection.
// Write errors stay with the writer (a bufio.Writer keeps the first one
// and returns it from Flush).
type Writer interface {
	io.StringWriter
	io.ByteWriter
}

// String renders the term in Edinburgh syntax with list notation and atom
// quoting. Operators are not reconstructed; compound terms print in
// canonical functional notation, which the parser accepts back.

func (a Atom) String() string { return quoteAtom(string(a)) }

func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

func (f Float) String() string {
	var buf [32]byte
	return string(appendFloat(buf[:0], float64(f)))
}

func (v *Var) String() string {
	if v.Ref != nil {
		return Deref(v).String()
	}
	return v.displayName()
}

func (c *Compound) String() string {
	var b strings.Builder
	Write(&b, c)
	return b.String()
}

// Write renders t into w byte for byte as t.String() spells it, without
// building the intermediate string.
func Write(w Writer, t Term) {
	var buf [32]byte
	switch t := Deref(t).(type) {
	case Atom:
		writeAtom(w, string(t))
	case Int:
		writeBytes(w, strconv.AppendInt(buf[:0], int64(t), 10))
	case Float:
		writeBytes(w, appendFloat(buf[:0], float64(t)))
	case *Var:
		if t.Name != "" && t.Name != "_" {
			w.WriteString(t.Name)
			return
		}
		w.WriteString("_G")
		writeBytes(w, strconv.AppendUint(buf[:0], t.id, 10))
	case *Compound:
		writeCompound(w, t)
	default:
		w.WriteString(t.String())
	}
}

func writeBytes(w Writer, b []byte) {
	for _, c := range b {
		w.WriteByte(c)
	}
}

// appendFloat appends f so that it reads back as a float, not an integer.
func appendFloat(dst []byte, f float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	for _, c := range dst[start:] {
		if c == '.' || c == 'e' || c == 'E' {
			return dst
		}
	}
	return append(dst, ".0"...)
}

func writeCompound(w Writer, c *Compound) {
	if c.Functor == ConsFunctor && len(c.Args) == 2 {
		writeList(w, c)
		return
	}
	// The control constructs print infix, parenthesised, so bodies read
	// naturally and re-parse exactly.
	if len(c.Args) == 2 && controlOp(c.Functor) {
		w.WriteByte('(')
		Write(w, c.Args[0])
		w.WriteString(c.Functor)
		Write(w, c.Args[1])
		w.WriteByte(')')
		return
	}
	writeAtom(w, c.Functor)
	w.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			w.WriteByte(',')
		}
		Write(w, a)
	}
	w.WriteByte(')')
}

func writeList(w Writer, c *Compound) {
	w.WriteByte('[')
	Write(w, c.Args[0])
	t := Deref(c.Args[1])
	for {
		if t == NilAtom {
			w.WriteByte(']')
			return
		}
		if cc, ok := t.(*Compound); ok && cc.Functor == ConsFunctor && len(cc.Args) == 2 {
			w.WriteByte(',')
			Write(w, cc.Args[0])
			t = Deref(cc.Args[1])
			continue
		}
		w.WriteByte('|')
		Write(w, t)
		w.WriteByte(']')
		return
	}
}

// controlOp reports whether f is one of the control operators printed
// infix.
func controlOp(f string) bool {
	switch f {
	case ",", ";", "->", ":-":
		return true
	}
	return false
}

// quoteAtom returns the atom in valid Edinburgh source form, adding quotes
// when the bare text would not read back as a single atom token.
func quoteAtom(s string) string {
	if atomNeedsNoQuotes(s) {
		return s
	}
	var b strings.Builder
	writeQuoted(&b, s)
	return b.String()
}

func writeAtom(w Writer, s string) {
	if atomNeedsNoQuotes(s) {
		w.WriteString(s)
		return
	}
	writeQuoted(w, s)
}

func writeQuoted(w Writer, s string) {
	w.WriteByte('\'')
	for _, r := range s {
		switch r {
		case '\'':
			w.WriteString(`\'`)
		case '\\':
			w.WriteString(`\\`)
		case '\n':
			w.WriteString(`\n`)
		case '\t':
			w.WriteString(`\t`)
		default:
			// Invalid UTF-8 decodes to utf8.RuneError and is written as
			// its encoding, as strings.Builder.WriteRune does.
			var buf [utf8.UTFMax]byte
			writeBytes(w, buf[:utf8.EncodeRune(buf[:], r)])
		}
	}
	w.WriteByte('\'')
}

func atomNeedsNoQuotes(s string) bool {
	if s == "" {
		return false
	}
	switch s {
	case "[]", "{}", "!", ";":
		return true
	}
	if isSoloLower(s) {
		return true
	}
	return isSymbolicAtom(s)
}

func isSoloLower(s string) bool {
	for i, r := range s {
		if i == 0 {
			if !(r >= 'a' && r <= 'z') {
				return false
			}
			continue
		}
		if !isAlnum(r) {
			return false
		}
	}
	return true
}

func isAlnum(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

const symbolChars = "+-*/\\^<>=~:.?@#&$"

func isSymbolicAtom(s string) bool {
	for _, r := range s {
		if !strings.ContainsRune(symbolChars, r) {
			return false
		}
	}
	return s != "."
}

// Format implements fmt.Formatter-ish convenience: %v and %s both print the
// term; other verbs fall back to the default behaviour via Sprintf on the
// string form. Only *Compound needs it explicitly — the scalar types already
// print correctly — but declaring on Compound keeps %d etc. from exploding.
func (c *Compound) Format(f fmt.State, verb rune) {
	fmt.Fprint(f, c.String())
}
