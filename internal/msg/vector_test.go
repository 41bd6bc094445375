package msg

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// checkDecodeVector holds DecodeVector to json.Unmarshal into a []Value
// on s: both fail or both succeed with deeply equal vectors, nil and
// empty told apart. A write into the result must not reach the memo, so
// decoding s again gives the same vector.
func checkDecodeVector(t *testing.T, s string) {
	t.Helper()
	var want []Value
	werr := json.Unmarshal([]byte(s), &want)
	got, err := DecodeVector(Value(s))
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodeVector(%q) error %v, json.Unmarshal error %v", s, err, werr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("DecodeVector(%q) failed but returned %q", s, got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeVector(%q) = %#v, json.Unmarshal gives %#v", s, got, want)
	}
	for i := range got {
		got[i] = "written by the caller"
	}
	if again, err := DecodeVector(Value(s)); err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("DecodeVector(%q) after writing into the first result = %#v (%v), want %#v", s, again, err, want)
	}
}

func FuzzDecodeVectorMatchesJSON(f *testing.F) {
	for _, s := range []string{
		`["0","1"]`, `[ "0" , "1" ]`, `["⊥","2"]`, `["a\"b","é"]`,
		`[]`, `null`, `[null]`, `""`, `{}`, `[1]`, `["0",]`, `["0"`, ``, `not-json`,
		string(EncodeVector(Uniform(8, One))),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkDecodeVector(t, s) })
}

// FuzzEncodeVectorMatchesJSON holds EncodeVector and EncodeVectorFunc to
// json.Marshal of the []Value: s split at sep is the vector, and null
// stands for the nil one, which both encoders must write as null.
func FuzzEncodeVectorMatchesJSON(f *testing.F) {
	for _, s := range []string{
		"0,1,1,0", "", "⊥", `a"b,c\d`, "<,>,&", "\x00,\n,\x1f,\x7f", "é, ,日本", "\xff\xfe",
		string(EncodeVector(Uniform(8, One))),
	} {
		f.Add(s, byte(','), false)
	}
	f.Add("", byte(0), true)
	f.Fuzz(func(t *testing.T, s string, sep byte, null bool) {
		var vec []Value
		if !null {
			vec = []Value{}
			for _, v := range strings.Split(s, string(sep)) {
				vec = append(vec, Value(v))
			}
		}
		want, err := json.Marshal(vec)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeVector(vec); string(got) != string(want) {
			t.Fatalf("EncodeVector(%q) = %s, json.Marshal gives %s", vec, got, want)
		}
		if vec != nil {
			if got := EncodeVectorFunc(len(vec), func(i int) Value { return vec[i] }); string(got) != string(want) {
				t.Fatalf("EncodeVectorFunc over %q = %s, json.Marshal gives %s", vec, got, want)
			}
		}
	})
}

// TestEncodeVectorAllocations: an n = 8 bit vector costs EncodeVector the
// string it returns; through json.Marshal it cost three.
func TestEncodeVectorAllocations(t *testing.T) {
	vec := []Value{Zero, One, One, Zero, One, Zero, Zero, One}
	if got := testing.AllocsPerRun(100, func() { EncodeVector(vec) }); got > 1 {
		t.Errorf("EncodeVector allocates %.0f times at n = 8, want ≤ 1", got)
	}
}

// TestDecodeVectorAllocations: a vector the memo holds costs DecodeVector
// the copy it hands back and SharedVector nothing. Decoding through
// encoding/json cost eight allocations at n = 8.
func TestDecodeVectorAllocations(t *testing.T) {
	v := EncodeVector([]Value{Zero, One, One, Zero, One, Zero, Zero, One})
	if got := testing.AllocsPerRun(100, func() {
		if _, err := DecodeVector(v); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("DecodeVector on a memoized vector allocates %.0f times, want ≤ 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := SharedVector(v); !ok {
			t.Fatal("not a vector")
		}
	}); got > 0 {
		t.Errorf("SharedVector on a memoized vector allocates %.0f times, want 0", got)
	}
}
