// Package msg defines the message and value vocabulary shared by every
// layer of the library: the simulation engine, the omission-failure model,
// the protocol implementations, and the transports.
//
// Following Appendix A.1.1 of the paper, a message is uniquely identified
// by its sender, receiver and round: the computational model guarantees
// that no process sends two messages to the same peer in one round, so a
// Message value doubles as a unique message identity. Payloads are
// deterministic strings (protocols encode structured payloads as
// canonical JSON), which makes messages comparable and hashable for the
// indistinguishability machinery.
package msg

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"expensive/internal/proc"
)

// Value is a protocol value: a proposal from V_I or a decision from V_O.
// Values are opaque deterministic strings; structured values (e.g. the
// I_n vectors decided by interactive consistency) use canonical encodings
// provided by this package.
type Value string

// Common binary values used by weak/strong consensus.
const (
	Zero Value = "0"
	One  Value = "1"
)

// Bit converts 0/1 to the corresponding binary Value.
func Bit(b int) Value {
	if b == 0 {
		return Zero
	}
	return One
}

// FlipBit returns the other binary value. It panics on non-binary input,
// which is a programming error in the caller.
func FlipBit(v Value) Value {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	}
	panic(fmt.Sprintf("msg: FlipBit on non-binary value %q", v))
}

// IsBit reports whether v ∈ {0, 1}.
func IsBit(v Value) bool { return v == Zero || v == One }

// NoDecision is the sentinel used in traces for "has not decided".
// It is not a legal protocol value.
const NoDecision Value = "\x00<undecided>"

// Message is a round-stamped message between two processes. All fields are
// comparable, so Message values can be used as map keys.
type Message struct {
	Sender   proc.ID
	Receiver proc.ID
	Round    int
	Payload  string
}

// String renders the message for diagnostics.
func (m Message) String() string {
	p := m.Payload
	if len(p) > 32 {
		p = p[:29] + "..."
	}
	return fmt.Sprintf("[r%d %s->%s %q]", m.Round, m.Sender, m.Receiver, p)
}

// Key is the identity of a message within an execution (sender, receiver,
// round). Per the computational model there is at most one message per key.
type Key struct {
	Sender   proc.ID
	Receiver proc.ID
	Round    int
}

// Key returns the identity of m.
func (m Message) Key() Key {
	return Key{Sender: m.Sender, Receiver: m.Receiver, Round: m.Round}
}

// Compare is the one message order — round, then sender, then receiver —
// that traces, explicit plans and corpora are all sorted by. Keys are
// unique within an inbox, trace or omission list, so the order is total
// there and a non-stable sort by it deterministic.
func (k Key) Compare(o Key) int {
	if k.Round != o.Round {
		return k.Round - o.Round
	}
	if k.Sender != o.Sender {
		return int(k.Sender) - int(o.Sender)
	}
	return int(k.Receiver) - int(o.Receiver)
}

// Sort orders messages by Key.Compare in place and returns the slice.
func Sort(ms []Message) []Message {
	slices.SortFunc(ms, func(a, b Message) int { return a.Key().Compare(b.Key()) })
	return ms
}

// Uniform returns the unanimous proposal vector: n copies of v (the
// inputs of the paper's executions E_0 and E_1).
func Uniform(n int, v Value) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// SetOf builds a set keyed by message identity.
func SetOf(ms []Message) map[Key]Message {
	out := make(map[Key]Message, len(ms))
	for _, m := range ms {
		out[m.Key()] = m
	}
	return out
}

// SameSet reports whether two message slices contain exactly the same
// messages (identity and payload), regardless of order.
func SameSet(a, b []Message) bool {
	if len(a) != len(b) {
		return false
	}
	sa := SetOf(a)
	for _, m := range b {
		got, ok := sa[m.Key()]
		if !ok || got != m {
			return false
		}
	}
	return true
}

// Encode canonically serializes any JSON-marshalable payload struct.
// encoding/json is deterministic for structs (field order) and maps
// (sorted keys), which is what makes simulated executions replayable.
func Encode(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Payload types are defined by this library and always marshalable;
		// reaching this is a programming error.
		panic(fmt.Sprintf("msg: encode payload: %v", err))
	}
	return string(b)
}

// AppendString appends s to b exactly as encoding/json writes a string
// value. It is the one place the protocols' direct payload encoders take
// their escaping from: printable ASCII is copied, the quote and the
// backslash get a backslash, and a string holding anything else — control
// bytes, non-ASCII, invalid UTF-8, or the three characters json.Marshal
// escapes for HTML — is handed to json.Marshal whole, so the format keeps
// a single definition. s may be a string or the bytes of one, so a body
// written into a reused buffer is escaped without first becoming a string.
func AppendString[S string | []byte](b []byte, s S) []byte {
	base := len(b)
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e || c == '<' || c == '>' || c == '&':
			quoted, err := json.Marshal(string(s))
			if err != nil {
				// json.Marshal cannot fail on a string.
				panic(fmt.Sprintf("msg: encode string: %v", err))
			}
			return append(b[:base], quoted...)
		case c == '"' || c == '\\':
			b = append(b, s[start:i]...)
			b = append(b, '\\', c)
			start = i + 1
		}
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Decode parses a payload produced by Encode into out.
func Decode(payload string, out any) error {
	if err := json.Unmarshal([]byte(payload), out); err != nil {
		return fmt.Errorf("decode payload %q: %w", payload, err)
	}
	return nil
}

// EncodeVector canonically encodes a vector of n values (the I_n elements
// decided by interactive consistency): json.Marshal's bytes, so a nil
// vector is null, written as EncodeVectorFunc writes them.
func EncodeVector(vec []Value) Value {
	if vec == nil {
		return "null"
	}
	return EncodeVectorFunc(len(vec), func(i int) Value { return vec[i] })
}

// EncodeVectorFunc is EncodeVector of the n-value vector whose i-th value
// is at(i), for a caller that holds the values elsewhere than in a
// []Value: "[", each value through AppendString, "]". at is called twice
// per index, once to size the buffer. The string is the one allocation of
// a vector that fits 128 bytes; a longer one first sizes a buffer for its
// unescaped bytes.
func EncodeVectorFunc(n int, at func(i int) Value) Value {
	size := 1 // the brackets and n-1 commas; each value adds its quotes
	for i := 0; i < n; i++ {
		size += len(at(i)) + 3
	}
	var stack [128]byte // vectors of up to 31 bits never leave it
	b := stack[:0]
	if size > len(stack) {
		b = make([]byte, 0, size)
	}
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, string(at(i)))
	}
	return Value(append(b, ']'))
}

// decodeCacheCap bounds each CachedDecoder's memo. Honest payload
// universes are tiny; only an adversary flooding unbounded distinct
// payloads ever reaches the cap, after which misses decode uncached.
const decodeCacheCap = 1 << 14

// Each CachedDecoder puts identitySlots entries in front of its memo, for
// payloads of at least identityMin bytes: below that, hashing the string
// costs less than the miss it would save.
const (
	identitySlots = 256
	identityMin   = 1 << 10
)

// identityWays returns the two entries a payload's data pointer may sit in.
// Large bodies sit at multiples of their size class or of a page, so the
// pointer's low bits carry little: a multiplicative (Fibonacci) hash mixes
// every bit into the top sixteen, eight per way. Two ways, not one: a
// broadcast round's n bodies are live together, and direct-mapped about
// n²/512 pairs of them would share an entry and evict each other at every
// receiver (at n = 70, 1,213 misses per run instead of 70).
func identityWays(p *byte) (int, int) {
	h := uint64(uintptr(unsafe.Pointer(p))) * 0x9e3779b97f4a7c15
	return int(h >> 56), int(h >> 48 & 0xff)
}

// CachedDecoder returns a process-wide memoizing decoder for payloads of
// type T. Probe sweeps decode the same small universe of payload strings
// millions of times; the memo turns those repeats into a map lookup.
//
// A large payload is usually one string handed to many receivers (a
// multiplexer's bundle goes to n - 1 of them), and a map lookup hashes and
// compares all of it every time. So a first level keyed by identity comes
// before the map: identitySlots entries, each holding a payload string of
// at least identityMin bytes with its verdict, in one of two entries
// chosen by the string's data pointer (a miss evicts the older of the
// two). A hit needs the same pointer and the same length. That is sound
// because the entry holds the string itself: its memory cannot be freed
// and reused for other bytes while the entry stands, so same pointer and
// length means same bytes. A shorter payload pays one length compare. The
// level keeps at most identitySlots payloads alive per decoder.
//
// The returned value is shared between all callers that present the same
// payload string: treat it as immutable. ok=false marks a payload that
// does not decode as T (a Byzantine sender's garbage) — that verdict is
// memoized too.
func CachedDecoder[T any]() func(payload string) (*T, bool) {
	type entry struct {
		val *T
		ok  bool
	}
	type identity struct {
		payload string
		stamp   int64 // a miss evicts the older of its two ways
		entry
	}
	var (
		cache  sync.Map // string -> entry
		size   atomic.Int64
		seen   [identitySlots]atomic.Pointer[identity]
		stored atomic.Int64
	)
	return func(payload string) (*T, bool) {
		large := len(payload) >= identityMin
		var a, b int
		if large {
			p := unsafe.StringData(payload)
			a, b = identityWays(p)
			for _, way := range [2]int{a, b} {
				if id := seen[way].Load(); id != nil && unsafe.StringData(id.payload) == p && len(id.payload) == len(payload) {
					return id.val, id.ok
				}
			}
		}
		var en entry
		if e, hit := cache.Load(payload); hit {
			en = e.(entry)
		} else {
			if v := new(T); Decode(payload, v) == nil {
				en = entry{val: v, ok: true}
			}
			if size.Load() < decodeCacheCap {
				if _, loaded := cache.LoadOrStore(payload, en); !loaded {
					size.Add(1)
				}
			}
		}
		if large {
			if x := seen[a].Load(); x != nil {
				if y := seen[b].Load(); y == nil || y.stamp < x.stamp {
					a = b
				}
			}
			seen[a].Store(&identity{payload, stored.Add(1), en})
		}
		return en.val, en.ok
	}
}

// Slot is a write-once cell that travels with one payload string so that
// its decoded form is found without looking the string up again: whoever
// routes the same payload bytes to many receivers (the multiplexer, which
// caches a bundle body with a slot per inner payload) hands every receiver
// a pointer to the same Slot, the first one stores what it decoded and the
// rest load it. A Slot outlives the run that filled it and is read by
// concurrent runs, and it holds whatever its first writer stored: a reader
// type-asserts what it loads and, if that is another protocol's decoding
// of the same bytes, decodes for itself. A Slot must not be copied.
type Slot struct {
	v atomic.Pointer[any]
}

// Load returns the stored value, or nil while nothing has been stored. A
// nil Slot is always empty.
func (s *Slot) Load() any {
	if s == nil {
		return nil
	}
	if p := s.v.Load(); p != nil {
		return *p
	}
	return nil
}

// Store keeps v if the slot is empty and is a no-op otherwise, as it is on
// a nil Slot.
func (s *Slot) Store(v any) {
	if s != nil && s.v.Load() == nil {
		held := v // boxed only on the path that stores
		s.v.CompareAndSwap(nil, &held)
	}
}

// vectors memoizes the I_n vectors DecodeVector and SharedVector parse.
var vectors = CachedDecoder[[]Value]()

// SharedVector parses a vector encoded by EncodeVector without copying it:
// the vector is the memo's, shared by every caller that presents the same
// encoding, and must not be written. ok is false when v is not a vector.
func SharedVector(v Value) ([]Value, bool) {
	vec, ok := vectors(string(v))
	if !ok {
		return nil, false
	}
	return *vec, true
}

// DecodeVector parses a vector encoded by EncodeVector into a vector the
// caller owns: a copy of SharedVector's, exactly what json.Unmarshal into
// a []Value gives. An encoding the memo refuses is decoded again for the
// error's text.
func DecodeVector(v Value) ([]Value, error) {
	if vec, ok := SharedVector(v); ok {
		return slices.Clone(vec), nil
	}
	var out []Value
	if err := Decode(string(v), &out); err != nil {
		return nil, fmt.Errorf("vector: %w", err)
	}
	return out, nil
}
