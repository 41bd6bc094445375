package msg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"expensive/internal/proc"
)

func TestBitHelpers(t *testing.T) {
	if Bit(0) != Zero || Bit(1) != One || Bit(7) != One {
		t.Error("Bit mapping wrong")
	}
	if FlipBit(Zero) != One || FlipBit(One) != Zero {
		t.Error("FlipBit wrong")
	}
	if !IsBit(Zero) || !IsBit(One) || IsBit("2") || IsBit(NoDecision) {
		t.Error("IsBit wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("FlipBit on non-bit should panic")
		}
	}()
	FlipBit("x")
}

func TestMessageKeyAndString(t *testing.T) {
	m := Message{Sender: 1, Receiver: 2, Round: 3, Payload: "hello"}
	if m.Key() != (Key{Sender: 1, Receiver: 2, Round: 3}) {
		t.Errorf("Key = %+v", m.Key())
	}
	if got := m.String(); got != `[r3 p1->p2 "hello"]` {
		t.Errorf("String = %q", got)
	}
	long := Message{Payload: "0123456789012345678901234567890123456789"}
	if len(long.String()) > 60 {
		t.Errorf("long payload not truncated: %q", long.String())
	}
}

func TestSortDeterminism(t *testing.T) {
	ms := []Message{
		{Sender: 2, Receiver: 0, Round: 1},
		{Sender: 1, Receiver: 3, Round: 2},
		{Sender: 1, Receiver: 0, Round: 1},
		{Sender: 1, Receiver: 2, Round: 1},
	}
	Sort(ms)
	want := []Message{
		{Sender: 1, Receiver: 0, Round: 1},
		{Sender: 1, Receiver: 2, Round: 1},
		{Sender: 2, Receiver: 0, Round: 1},
		{Sender: 1, Receiver: 3, Round: 2},
	}
	if !reflect.DeepEqual(ms, want) {
		t.Errorf("Sort = %v", ms)
	}
}

func TestSameSet(t *testing.T) {
	a := []Message{{Sender: 1, Receiver: 2, Round: 1, Payload: "x"}}
	b := []Message{{Sender: 1, Receiver: 2, Round: 1, Payload: "x"}}
	if !SameSet(a, b) {
		t.Error("identical sets not equal")
	}
	c := []Message{{Sender: 1, Receiver: 2, Round: 1, Payload: "y"}}
	if SameSet(a, c) {
		t.Error("payload difference not detected")
	}
	if SameSet(a, nil) {
		t.Error("length difference not detected")
	}
	if !SameSet(nil, nil) {
		t.Error("empty sets should be equal")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	type inner struct {
		A int
		B string
	}
	v := inner{A: 7, B: "x"}
	var got inner
	if err := Decode(Encode(v), &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got != v {
		t.Errorf("round trip = %+v", got)
	}
	if err := Decode("{not json", &got); err == nil {
		t.Error("expected decode error")
	}
}

func TestVectorRoundTripProperty(t *testing.T) {
	f := func(raw []string) bool {
		vec := make([]Value, len(raw))
		for i, s := range raw {
			vec[i] = Value(s)
		}
		got, err := DecodeVector(EncodeVector(vec))
		if err != nil {
			return false
		}
		if len(got) != len(vec) {
			return false
		}
		for i := range vec {
			if got[i] != vec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeVectorErrors(t *testing.T) {
	if _, err := DecodeVector("not-json"); err == nil {
		t.Error("expected error")
	}
}

func TestEncodeDeterminism(t *testing.T) {
	// Map keys are sorted by encoding/json: canonical form.
	m1 := map[string]string{"b": "2", "a": "1"}
	m2 := map[string]string{"a": "1", "b": "2"}
	if Encode(m1) != Encode(m2) {
		t.Error("map encoding not canonical")
	}
}

func TestSetOf(t *testing.T) {
	ms := []Message{
		{Sender: proc.ID(1), Receiver: 2, Round: 1, Payload: "a"},
		{Sender: proc.ID(3), Receiver: 2, Round: 1, Payload: "b"},
	}
	set := SetOf(ms)
	if len(set) != 2 {
		t.Fatalf("SetOf len = %d", len(set))
	}
	if set[ms[0].Key()].Payload != "a" {
		t.Error("SetOf lookup wrong")
	}
}

// TestKeyCompare: Sort is a sort by Key.Compare, and the order is total
// on distinct keys — exactly one of a<b, b<a holds, so a non-stable sort
// by it has one outcome.
func TestKeyCompare(t *testing.T) {
	var ms []Message
	for r := 1; r <= 3; r++ {
		for s := proc.ID(0); s < 4; s++ {
			for q := proc.ID(0); q < 4; q++ {
				if s != q {
					ms = append(ms, Message{Sender: s, Receiver: q, Round: r, Payload: "x"})
				}
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	keys := make([]Key, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	slices.SortFunc(keys, Key.Compare)
	for i, m := range Sort(ms) {
		if m.Key() != keys[i] {
			t.Fatalf("Sort[%d] = %v, sorting the keys by Compare puts %v there", i, m, keys[i])
		}
	}
	for i, a := range keys {
		for j, b := range keys {
			ab, ba := a.Compare(b), b.Compare(a)
			if (i < j) != (ab < 0) || (i > j) != (ab > 0) || (ab < 0) != (ba > 0) {
				t.Fatalf("Compare(%v, %v) = %d and %d reversed, at sorted positions %d and %d", a, b, ab, ba, i, j)
			}
		}
	}
}
