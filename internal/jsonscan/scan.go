// Package jsonscan is a validating JSON tokenizer over a byte slice: a
// cursor with skip-value, read-string, read-number and object-iteration
// primitives that never builds a value tree and never copies the input.
// It accepts exactly the grammar encoding/json's scanner accepts —
// RFC 8259 with the same whitespace set, the same string escapes and
// the same nesting cap — so a decoder written over it agrees with an
// encoding/json decoder on which inputs are well-formed. prov's
// PROV-JSON decoder and provservice's NDJSON batch envelope are both
// written over it.
package jsonscan

import (
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth is how deep arrays and objects may nest, as in encoding/json.
const MaxDepth = 10000

// SyntaxError reports malformed JSON at a byte offset of the input.
type SyntaxError struct {
	Offset int
	msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s at offset %d", e.msg, e.Offset)
}

// Scanner is a cursor over one JSON text. The zero Scanner scans an
// empty input; New positions one at the start of data.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	// opened: OpenObject ran and NextKey has not yet, so the next
	// member, if any, is the object's first and takes no comma.
	opened bool
}

// New returns a scanner at the start of data, which it reads but never
// modifies or retains beyond the Scanner's own lifetime.
func New(data []byte) Scanner { return Scanner{data: data} }

// Remaining is the number of input bytes from the cursor on.
func (s *Scanner) Remaining() int { return len(s.data) - s.pos }

// unexpected reports the byte at the cursor (or the end of input) as
// out of place in ctx.
func (s *Scanner) unexpected(ctx string) error {
	if s.pos >= len(s.data) {
		return &SyntaxError{Offset: s.pos, msg: "unexpected end of JSON input"}
	}
	return &SyntaxError{Offset: s.pos, msg: fmt.Sprintf("invalid character %q %s", s.data[s.pos], ctx)}
}

// Peek skips whitespace and returns the byte the next token starts
// with — '{', '[', '"', '-', a digit, 't', 'f' or 'n' for a value —
// without consuming it, or 0 at the end of the input.
func (s *Scanner) Peek() byte {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
		s.pos++
	}
	return 0
}

// End reports anything but whitespace left in the input as an error.
func (s *Scanner) End() error {
	if s.Peek() != 0 || s.pos < len(s.data) {
		return s.unexpected("after top-level value")
	}
	return nil
}

// Str locates a string token: data[Start:End] is what stands between
// its quotes. Escaped is set when that content holds a backslash escape
// or invalid UTF-8, so its value differs from the raw bytes; Bytes and
// Text resolve either form.
type Str struct {
	Start, End int
	Escaped    bool
}

// Bytes returns the string's value: a sub-slice of the input when the
// token needed no unescaping, a fresh slice otherwise.
func (s *Scanner) Bytes(t Str) []byte {
	raw := s.data[t.Start:t.End]
	if !t.Escaped {
		return raw
	}
	return unquote(raw)
}

// Text returns the string's value as a new string.
func (s *Scanner) Text(t Str) string { return string(s.Bytes(t)) }

// String consumes a string token.
func (s *Scanner) String() (Str, error) {
	if s.Peek() != '"' {
		return Str{}, s.unexpected("looking for beginning of string")
	}
	s.pos++
	t := Str{Start: s.pos}
	data := s.data
	for i := s.pos; i < len(data); {
		c := data[i]
		if !stringStop[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			t.End = i
			s.pos = i + 1
			return t, nil
		case c == '\\':
			t.Escaped = true
			i++
			if i >= len(data) {
				s.pos = i
				return Str{}, s.unexpected("")
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(data) || !isHex(data[i+k]) {
						s.pos = i + k
						return Str{}, s.unexpected("in \\u hexadecimal character escape")
					}
				}
				i += 5
			default:
				s.pos = i
				return Str{}, s.unexpected("in string escape code")
			}
		case c < ' ':
			s.pos = i
			return Str{}, s.unexpected("in string literal")
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				t.Escaped = true // coerced to U+FFFD on read
			}
			i += size
		}
	}
	s.pos = len(data)
	return Str{}, s.unexpected("")
}

// stringStop marks the bytes String has to look at: the closing quote,
// the escape character, control characters and every byte of 0x80 and
// above, where a UTF-8 sequence (or invalid UTF-8) starts. Any other
// byte stands for itself.
var stringStop = func() (stop [256]bool) {
	for c := range stop {
		stop[c] = c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return stop
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote resolves the escapes of a validated string's content and
// replaces invalid UTF-8 and unpaired surrogates with U+FFFD, as
// encoding/json does.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+2*utf8.UTFMax)
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			r++
			switch raw[r] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(raw[r+1:])
				r += 4
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if r+6 < len(raw) && raw[r+1] == '\\' && raw[r+2] == 'u' {
						rr1 = hex4(raw[r+3:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						r += 6 // a valid pair: consume the low half too
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, rr)
			default: // '"', '\\', '/'
				out = append(out, raw[r])
			}
			r++
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out
}

// hex4 decodes four validated hexadecimal digits.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Number consumes a number token and returns it, a sub-slice of the
// input; integer reports that it has neither fraction nor exponent.
func (s *Scanner) Number() (num []byte, integer bool, err error) {
	s.Peek()
	data := s.data
	i := s.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	default:
		s.pos = i
		return nil, false, s.unexpected("in numeric literal")
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		integer = false
		i++
		if i >= len(data) || !isDigit(data[i]) {
			s.pos = i
			return nil, false, s.unexpected("after decimal point in numeric literal")
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integer = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			s.pos = i
			return nil, false, s.unexpected("in exponent of numeric literal")
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	num = data[s.pos:i]
	s.pos = i
	return num, integer, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Literal consumes word — "true", "false" or "null" — at the cursor.
func (s *Scanner) Literal(word string) error {
	s.Peek()
	for k := 0; k < len(word); k++ {
		if s.pos >= len(s.data) || s.data[s.pos] != word[k] {
			return s.unexpected("in literal " + word)
		}
		s.pos++
	}
	return nil
}

func (s *Scanner) push() error {
	s.depth++
	if s.depth > MaxDepth {
		return &SyntaxError{Offset: s.pos, msg: "exceeded max depth"}
	}
	s.pos++
	return nil
}

// OpenObject consumes the '{' of an object; NextKey then walks its
// members.
func (s *Scanner) OpenObject() error {
	if s.Peek() != '{' {
		return s.unexpected("looking for beginning of object")
	}
	s.opened = true
	return s.push()
}

// NextKey consumes up to and including the next member's key and colon,
// leaving the cursor on the member's value, which the caller must
// consume before calling NextKey again. At the closing '}' it consumes
// that and returns ok false.
func (s *Scanner) NextKey() (key Str, ok bool, err error) {
	first := s.opened
	s.opened = false
	switch c := s.Peek(); {
	case c == '}':
		s.pos++
		s.depth--
		return Str{}, false, nil
	case first:
	case c == ',':
		s.pos++
	default:
		return Str{}, false, s.unexpected("after object key:value pair")
	}
	if s.Peek() != '"' {
		return Str{}, false, s.unexpected("looking for beginning of object key string")
	}
	if key, err = s.String(); err != nil {
		return Str{}, false, err
	}
	if s.Peek() != ':' {
		return Str{}, false, s.unexpected("after object key")
	}
	s.pos++
	return key, true, nil
}

// Skip consumes one value of any type, validating all of it.
func (s *Scanner) Skip() error {
	switch c := s.Peek(); c {
	case '{':
		if err := s.OpenObject(); err != nil {
			return err
		}
		for {
			_, ok, err := s.NextKey()
			if err != nil || !ok {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := s.push(); err != nil {
			return err
		}
		if s.Peek() == ']' {
			s.pos++
			s.depth--
			return nil
		}
		for {
			if err := s.Skip(); err != nil {
				return err
			}
			switch s.Peek() {
			case ',':
				s.pos++
			case ']':
				s.pos++
				s.depth--
				return nil
			default:
				return s.unexpected("after array element")
			}
		}
	case '"':
		_, err := s.String()
		return err
	case 't':
		return s.Literal("true")
	case 'f':
		return s.Literal("false")
	case 'n':
		return s.Literal("null")
	default:
		if c == '-' || isDigit(c) {
			_, _, err := s.Number()
			return err
		}
		return s.unexpected("looking for beginning of value")
	}
}
