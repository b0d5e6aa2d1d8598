package jsonscan

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// texts is a spread of well- and ill-formed JSON texts; the tests hold
// the scanner to encoding/json's verdict and values on each.
var texts = []string{
	``, ` `, `null`, `true`, `false`, `nul`, `truex`, `True`, ` null `, "\tnull\r\n", "\vnull", "null\f",
	`0`, `-0`, `1`, `-1`, `10`, `01`, `-`, `-a`, `1.5`, `1.`, `.5`, `1e5`, `1E5`, `1e+5`, `1e-5`, `1e`, `1e+`, `1.5e3`, `+1`, `0x1`, `1 2`, `1,`,
	`""`, `"a"`, `"a`, `"\"\\\/\b\f\n\r\t"`, `"\a"`, `"\'"`, `"A"`, `"é€"`, `"\u004"`, `"\u00g1"`, `"\u"`, `"\`,
	`"😀"`, `"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`, `"\ud83d😀"`, `"\udc00𐀀"`, `"\ud800\udbff"`, `"a\ud800"`,
	"\"a\x01b\"", "\"a\x1fb\"", "\"a\x7fb\"", "\"a\tb\"", "\"a\nb\"", "\"\x00\"",
	// The edges of String's stop table, inside a string and at its end,
	// and escapes cut off by the end of the input.
	"\"\x1f\"", "\"a b\"", "\" \"", "\"\x7f\"", "\"a\x80b\"", "\"\x80\"", "\"a\xffb\"", `"ab\`, `"ab\"`, `"ab\u00`,
	"\"caf\xc3\xa9\"", "\"\xe2\x82\xac\"", "\"\xf0\x9f\x98\x80\"", "\"\xff\"", "\"a\xc3\"", "\"\xc3(\"", "\"\xed\xa0\x80\"", "\"\xf0\x9f\x98\"", "\"\xc0\xaf\"",
	`[]`, `[ ]`, `[1]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[`, `]`, `[1`, `[[]]`, `[[],[]]`, `[{}]`, `[1,[2,[3,[]]]]`,
	`{}`, `{ }`, `{"a":1}`, `{"a":1,"b":2}`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `{"a" 1}`, `{a:1}`, `{'a':1}`, `{1:1}`, `{`, `}`, `{"a":1`, `{"a":1]`, `[1}`,
	`{"a":{"b":{"c":[1,{"d":null}]}}}`, `{"a":1,"a":2}`, `{"":""}`, `{"ab":1}`, `{"a":1} x`, `{}{}`, `{} `, "{}\x00", "\xef\xbb\xbf{}",
	`{"a": [ 1 , 2 ] , "b" : { "c" : "d" } }`,
}

func TestSkipAgreesWithEncodingJSON(t *testing.T) {
	deep := func(n int, open, shut string) string {
		return strings.Repeat(open, n) + "0" + strings.Repeat(shut, n)
	}
	all := append([]string(nil), texts...)
	for _, n := range []int{MaxDepth - 1, MaxDepth, MaxDepth + 1} {
		all = append(all, deep(n, "[", "]"), deep(n, `{"k":`, "}"), `{"k":`+deep(n-1, "[", "]")+`}`)
	}
	for _, text := range all {
		sc := New([]byte(text))
		err := sc.Skip()
		if err == nil {
			err = sc.End()
		}
		if want := json.Valid([]byte(text)); (err == nil) != want {
			t.Errorf("%.60q: scanner says %v, json.Valid says %v", text, err, want)
		}
		var se *SyntaxError
		if err != nil && !errors.As(err, &se) {
			t.Errorf("%.60q: error %v is no *SyntaxError", text, err)
		}
	}
}

func TestStringAgreesWithEncodingJSON(t *testing.T) {
	for _, text := range texts {
		var want string
		if !strings.HasPrefix(text, `"`) || json.Unmarshal([]byte(text), &want) != nil {
			continue
		}
		sc := New([]byte(text))
		tok, err := sc.String()
		if err != nil {
			t.Errorf("%q: %v", text, err)
			continue
		}
		if got := sc.Text(tok); got != want {
			t.Errorf("%q reads as %q, encoding/json reads %q", text, got, want)
		}
		if raw := text[tok.Start:tok.End]; !tok.Escaped && raw != want {
			t.Errorf("%q: not marked escaped, but raw %q differs from value %q", text, raw, want)
		}
		if b := sc.Bytes(tok); !tok.Escaped && len(b) > 0 && &b[0] != &sc.data[tok.Start] {
			t.Errorf("%q: Bytes copied a string that needs no unescaping", text)
		}
	}
}

func TestNumber(t *testing.T) {
	for _, tc := range []struct {
		text    string
		integer bool
	}{{"0", true}, {"-0", true}, {"-12", true}, {"9223372036854775808", true}, {"1.0", false}, {"1e2", false}, {"-1.5E-3", false}} {
		sc := New([]byte("  " + tc.text + " ,"))
		num, integer, err := sc.Number()
		if err != nil || string(num) != tc.text || integer != tc.integer {
			t.Errorf("Number(%q) = %q, integer %v, err %v", tc.text, num, integer, err)
		}
		if sc.Peek() != ',' {
			t.Errorf("Number(%q) left the cursor at %d", tc.text, sc.pos)
		}
	}
}

// TestObjectWalk drives OpenObject/NextKey the way the decoders do:
// nested walks, skipped members, spans taken from Pos.
func TestObjectWalk(t *testing.T) {
	text := []byte(` { "a" : { "x" : 1 , "y" : [ { } ] } , "b\n" : "v" , "c" : { } } `)
	sc := New(text)
	if err := sc.OpenObject(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for {
		key, ok, err := sc.NextKey()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		name := sc.Text(key)
		keys = append(keys, name)
		if name != "a" {
			sc.Peek()
			start := sc.pos
			if err := sc.Skip(); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, string(text[start:sc.pos]))
			continue
		}
		if err := sc.OpenObject(); err != nil {
			t.Fatal(err)
		}
		for {
			key, ok, err := sc.NextKey()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			keys = append(keys, "a."+sc.Text(key))
			if err := sc.Skip(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.End(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(keys, "|"), "a|a.x|a.y|b\n|\"v\"|c|{ }"; got != want {
		t.Fatalf("walk saw %q, want %q", got, want)
	}
}

// FuzzSkipMatchesValid holds the scanner to encoding/json on any bytes:
// Skip then End accepts exactly what json.Valid accepts, every rejection
// is a *SyntaxError, and a text that encoding/json reads as a string
// reads, through String and Bytes, as the same string.
func FuzzSkipMatchesValid(f *testing.F) {
	for _, text := range texts {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := New(data)
		err := sc.Skip()
		if err == nil {
			err = sc.End()
		}
		if want := json.Valid(data); (err == nil) != want {
			t.Fatalf("%q: scanner says %v, json.Valid says %v", data, err, want)
		}
		var se *SyntaxError
		if err != nil && !errors.As(err, &se) {
			t.Fatalf("%q: error %v is no *SyntaxError", data, err)
		}
		var want string
		if len(data) == 0 || data[0] != '"' || json.Unmarshal(data, &want) != nil {
			return
		}
		sc = New(data)
		tok, err := sc.String()
		if err != nil {
			t.Fatalf("%q: %v", data, err)
		}
		if got := sc.Bytes(tok); string(got) != want {
			t.Fatalf("%q reads as %q, encoding/json reads %q", data, got, want)
		}
	})
}
