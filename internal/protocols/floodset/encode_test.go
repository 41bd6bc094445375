package floodset

import (
	"testing"

	"expensive/internal/msg"
)

// TestEncodeWMatchesJSON holds the direct encoder to the payload format's
// single definition, msg.Encode of the payload struct: values it writes
// itself and values it hands to encoding/json (escapes, HTML-sensitive
// characters, non-ASCII, invalid UTF-8) must both give json.Marshal's
// bytes, and every body must decode back to the set.
func TestEncodeWMatchesJSON(t *testing.T) {
	for _, w := range [][]msg.Value{
		{"0"},
		{"0", "1"},
		{""},
		{"", "a b", "~tilde", "{brace}", "[1,2]"},
		{"\"quoted\"", "back\\slash"},
		{"<", ">", "&"},
		{"\x00", "\n", "\x1f", "\x7f"},
		{"é", " ", "日本"},
		{"\xff\xfe"},
		{msg.NoDecision},
	} {
		got, want := encodeW(w), msg.Encode(payload{W: w})
		if got != want {
			t.Errorf("encodeW(%q) = %s, want %s", w, got, want)
		}
		p, ok := decodePayload(got)
		if !ok || len(p.W) != len(w) {
			t.Errorf("encodeW(%q) = %s does not decode back", w, got)
		}
	}
}
