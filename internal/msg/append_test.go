package msg

import (
	"encoding/json"
	"testing"
)

// checkAppendString holds AppendString to json.Marshal on s, after a
// prefix that must survive (the fallback path truncates what it wrote).
func checkAppendString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = `{"V":`
	if got := string(AppendString([]byte(prefix), s)); got != prefix+string(want) {
		t.Errorf("AppendString(%q) = %s, want %s%s", s, got, prefix, want)
	}
}

// nested wraps s in levels of JSON string encoding, as a bundle of
// payloads of signed items is.
func nested(s string, levels int) string {
	for i := 0; i < levels; i++ {
		s = Encode(map[string]string{"I": s})
	}
	return s
}

func TestAppendStringMatchesJSON(t *testing.T) {
	for _, s := range []string{
		"", "0", "a b", "~tilde", "{brace}", "[1,2]",
		`"`, `\`, `"quoted"`, `back\slash`, `\"`, `"\`, `\\\"`,
		nested(`{"V":"1"}`, 1), nested(`{"V":"1"}`, 2), nested(`{"V":"a\"b\\c"}`, 3),
		"<", ">", "&", "a<b", `"&"`,
		"\n", "\t", "\x7f", "tab\there",
		"⊥", "é", "日本", "\u2028", "\u2029", "a\"⊥",
		"\xff\xfe", "ok\xc3", "\xed\xa0\x80",
		string(NoDecision),
	} {
		checkAppendString(t, s)
	}
	for c := 0; c < 256; c++ {
		checkAppendString(t, string([]byte{byte(c)}))
		checkAppendString(t, string([]byte{'a', '"', byte(c), '\\', 'z'}))
	}
}

func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "0", `"\`, "<&>", "⊥", "\xff", "\x00\x1f\x7f", nested(`{"V":"1"}`, 2)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkAppendString(t, s) })
}
