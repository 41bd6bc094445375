package adversary

import (
	"fmt"
	mathbits "math/bits" // the tests have a helper named bits
	"strconv"

	"expensive/internal/msg"
)

// StreamVersion names the seed → randomness mapping this package draws:
// how SubSeed derives a sub-stream key, how a Stream turns that key into
// numbers, and how coin decides a message. Every seeded artifact that can
// be continued later — campaign, fuzz and matrix reports, fuzz corpora,
// dist checkpoints — records it, and resuming one across versions is
// refused: a corpus grown from stream-1 draws and extended with stream-2
// draws is a population no single run could have produced.
//
// Bump it whenever the same (seed, salt) would yield a different plan,
// proposal vector or mutation: a change to SubSeed, Stream or coin, to the
// order or number of draws a strategy makes, or to a salt string. The
// goldens under testdata/ turn a forgotten bump into a failing test.
//
// Version 1 was math/rand sources seeded per sub-stream plus an
// fmt-into-FNV coin; version 2 is splitmix64 throughout.
const StreamVersion = 2

// CheckStreamVersion refuses to continue an artifact (what names it, for
// the error) recorded under another stream version. Artifacts written
// before the field existed carry no version and read as 1.
func CheckStreamVersion(what string, recorded int) error {
	if recorded == 0 {
		recorded = 1
	}
	if recorded != StreamVersion {
		return fmt.Errorf("%s was recorded under stream_version %d, this binary draws stream_version %d: the same seeds now yield different plans, so it cannot be resumed — start a fresh run",
			what, recorded, StreamVersion)
	}
	return nil
}

// subSeed mixes a seed with a salt string into a derived seed, so the
// independent random choices of one probe never share a stream: FNV-1a
// (64-bit) over the bytes of "<seed>|<salt>". The value predates
// StreamVersion 2 and is kept, so keys derived outside this package
// (chaosnet rule seeds, Union/Biased child seeds) did not move with it.
func subSeed(seed int64, salt string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var digits [20]byte // len("-9223372036854775808")
	h := uint64(offset64)
	for _, c := range strconv.AppendInt(digits[:0], seed, 10) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '|') * prime64
	for i := 0; i < len(salt); i++ {
		h = (h ^ uint64(salt[i])) * prime64
	}
	return int64(h)
}

// SubSeed exposes the seed mixer to the fuzz package: campaign seed
// sweeps and the fuzzer's seed generation must derive their streams the
// same way, so there is exactly one mixer.
func SubSeed(seed int64, salt string) int64 { return subSeed(seed, salt) }

// mix64 is the splitmix64 output function: a bijection on 64-bit words
// whose every output bit depends on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gamma is splitmix64's state increment (2⁶⁴/φ, odd).
const gamma = 0x9e3779b97f4a7c15

// Stream is a deterministic random stream: splitmix64 over one word of
// state. It is a value — building one costs nothing and allocates
// nothing, which matters because every probe opens several to draw a
// dozen numbers. The zero value is a valid stream (that of key 0).
type Stream struct{ state uint64 }

// NewStream returns the deterministic random stream of (seed, salt),
// keyed by SubSeed. Campaign strategies and the fuzzer's mutator both open
// their streams here, so seed derivation stays interoperable between them.
// The key passes through mix64 once: FNV-1a keys of neighbouring seeds
// differ by a few multiplications, and the state should not inherit that
// structure.
func NewStream(seed int64, salt string) Stream {
	return Stream{state: mix64(uint64(subSeed(seed, salt)))}
}

func (s *Stream) next() uint64 {
	s.state += gamma
	return mix64(s.state)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Stream) Int63() int64 { return int64(s.next() >> 1) }

// Intn returns a pseudo-random integer in [0, n). It panics when n <= 0,
// which is a programming error in the caller. The bias of reducing a
// 64-bit draw is at most n/2⁶⁴, immeasurable at the process and round
// counts drawn here. The reduction is a remainder rather than the cheaper
// multiply-shift on purpose: a matrix sweeps the same seeds at several
// sizes, and multiply-shift maps one draw to the same relative position
// in every range — the targeted attack's pivot round then hits or misses
// the decision round at all sizes together — while remainders by
// different moduli spread the cells of one seed apart.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("adversary: Stream.Intn: n <= 0")
	}
	return int(s.next() % uint64(n))
}

// coin makes a deterministic pseudo-random decision for a message under a
// seed: the same (seed, message identity) always lands the same way, which
// keeps predicate-based fault plans valid static adversaries. Percentages
// outside 0..100 behave as the nearest bound (never/always).
//
// The decision is an integer mix of (seed, sender, receiver, round) — it
// runs once per message that touches a faulty process, the innermost loop
// of a hunt. The seed is mixed before the message identity is folded in,
// so adjacent seeds (a machine's seed and seed+1) decide independently.
func coin(seed int64, m msg.Message, biasPct int) bool {
	if biasPct <= 0 {
		return false
	}
	if biasPct >= 100 {
		return true
	}
	h := mix64(uint64(seed) + gamma)
	h = mix64(h ^ (uint64(m.Sender)<<32 | uint64(uint32(m.Receiver))))
	h = mix64(h ^ uint64(m.Round))
	pct, _ := mathbits.Mul64(h, 100)
	return pct < uint64(biasPct)
}
