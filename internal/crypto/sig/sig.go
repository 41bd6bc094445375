// Package sig provides the authentication substrate of §5.1: digital
// signatures that let a process sign messages "in a way that prevents the
// signature from being forged by any other process" (the idealized model
// of [Canetti 04] the paper builds on).
//
// Two interchangeable schemes are provided:
//
//   - Ideal: an idealized signature oracle backed by per-identity
//     HMAC-SHA256 keys derived from a master seed. It models the paper's
//     idealized authenticated setting exactly and is fast where the
//     benchmark sweeps need it: each identity's HMAC pads are derived once,
//     and a signature it has already produced is read back from a capped
//     per-scheme cache without allocating.
//   - Ed25519: real public-key signatures from crypto/ed25519 with
//     deterministic key generation, demonstrating that every authenticated
//     protocol in this library runs unchanged on a production scheme.
//
// Unforgeability inside the simulator is enforced by Restrict: protocol
// code and Byzantine adversaries receive a Signer restricted to the
// identities they legitimately control, so a faulty process can never
// produce a valid signature for a correct one.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"expensive/internal/proc"
)

// Signature is a detached signature over a byte string, hex-encoded so it
// can travel inside canonical JSON payloads.
type Signature string

// Scheme can sign on behalf of process identities and verify signatures.
type Scheme interface {
	// Sign produces id's signature over data. It returns an error when this
	// scheme instance is not allowed to sign for id (see Restrict).
	Sign(id proc.ID, data []byte) (Signature, error)
	// Verify reports whether sig is id's valid signature over data.
	Verify(id proc.ID, data []byte, sig Signature) bool
	// Name identifies the scheme for diagnostics.
	Name() string
}

// Ideal is the idealized HMAC-backed signature oracle. Each process id —
// a member of Π or an identity outside it, such as a blockchain client —
// has an independent secret key derived from the master seed; a signature
// is HMAC-SHA256 under that key, hex-encoded, and is valid iff it was
// produced with that key over exactly that data.
//
// The oracle keeps one record per identity: the key's inner and outer
// HMAC pads, derived the first time the identity signs or verifies, and
// the signatures that identity has produced. Authenticated probe sweeps
// sign the same small universe of (id, data) pairs over and over, so a
// repeat is one map lookup under a read lock and allocates nothing; a new
// pair hashes the pads and the data with SHA-256 directly, under the
// write lock. Signatures are deterministic, so cached and fresh results
// are identical. The cache is safe for concurrent use (a campaign's
// workers share one scheme) and capped at sigCacheCap signatures over all
// identities: an adversary signing unbounded distinct data past the cap
// is answered correctly but stops populating it.
//
// No scheme is process-global: catalog.DefaultParams makes a fresh one
// per call, so each matrix cell fills a cache of its own, which neither
// outlives the cell nor couples cells that run in parallel.
type Ideal struct {
	master pads
	mu     sync.RWMutex
	ids    map[proc.ID]*identity
	nsig   int // cached signatures over all identities
}

// identity is one signer's record in an Ideal.
type identity struct {
	key  pads
	sigs map[string]Signature
}

// pads are an HMAC-SHA256 key's inner and outer blocks: the key, at most
// one SHA-256 block long, zero-filled to a block and XORed with 0x36 and
// with 0x5c.
type pads struct {
	inner, outer [sha256.BlockSize]byte
}

func newPads(key []byte) pads {
	var p pads
	for i := range p.inner {
		var k byte
		if i < len(key) {
			k = key[i]
		}
		p.inner[i], p.outer[i] = k^0x36, k^0x5c
	}
	return p
}

// mac is HMAC-SHA256 under p over data: SHA-256 of the outer pad and
// SHA-256 of the inner pad and data. Short data is hashed from the stack.
func (p *pads) mac(data []byte) [sha256.Size]byte {
	var buf [4 * sha256.BlockSize]byte
	inner := sha256.Sum256(append(append(buf[:0], p.inner[:]...), data...))
	return sha256.Sum256(append(append(buf[:0], p.outer[:]...), inner[:]...))
}

const sigCacheCap = 1 << 15

var _ Scheme = (*Ideal)(nil)

// NewIdeal creates an idealized scheme from a master seed. Two schemes with
// the same seed accept each other's signatures, which is how all processes
// of one system share a PKI.
func NewIdeal(seed string) *Ideal {
	master := sha256.Sum256([]byte("ideal-master|" + seed))
	return &Ideal{master: newPads(master[:]), ids: make(map[proc.ID]*identity)}
}

// Sign implements Scheme.
func (s *Ideal) Sign(id proc.ID, data []byte) (Signature, error) {
	var out Signature
	ok := false
	s.mu.RLock()
	if rec := s.ids[id]; rec != nil {
		out, ok = rec.sigs[string(data)]
	}
	s.mu.RUnlock()
	if ok {
		return out, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.ids[id]
	if rec == nil {
		// id's key is the master key's HMAC over "key|" and id as eight
		// big-endian bytes.
		msg := [12]byte{'k', 'e', 'y', '|'}
		binary.BigEndian.PutUint64(msg[4:], uint64(int64(id)))
		key := s.master.mac(msg[:])
		rec = &identity{key: newPads(key[:]), sigs: make(map[string]Signature)}
		s.ids[id] = rec
	}
	if out, ok := rec.sigs[string(data)]; ok {
		return out, nil
	}
	sum := rec.key.mac(data)
	var hexed [2 * sha256.Size]byte
	hex.Encode(hexed[:], sum[:])
	out = Signature(hexed[:])
	if s.nsig < sigCacheCap {
		rec.sigs[string(data)] = out
		s.nsig++
	}
	return out, nil
}

// Verify implements Scheme, comparing in time that depends only on the
// signature's length.
func (s *Ideal) Verify(id proc.ID, data []byte, sig Signature) bool {
	want, err := s.Sign(id, data)
	if err != nil || len(want) != len(sig) {
		return false
	}
	var diff byte
	for i := 0; i < len(want); i++ {
		diff |= want[i] ^ sig[i]
	}
	return diff == 0
}

// Name implements Scheme.
func (s *Ideal) Name() string { return "ideal-hmac" }

// Ed25519 is a real public-key scheme with deterministic per-id keypairs.
type Ed25519 struct {
	seed string
	pub  map[proc.ID]ed25519.PublicKey
	priv map[proc.ID]ed25519.PrivateKey
}

var _ Scheme = (*Ed25519)(nil)

// NewEd25519 creates a deterministic Ed25519 scheme covering ids 0..n-1
// plus extraIDs (e.g. blockchain client identities outside Π).
func NewEd25519(seed string, n int, extraIDs ...proc.ID) *Ed25519 {
	s := &Ed25519{
		seed: seed,
		pub:  make(map[proc.ID]ed25519.PublicKey, n+len(extraIDs)),
		priv: make(map[proc.ID]ed25519.PrivateKey, n+len(extraIDs)),
	}
	for id := proc.ID(0); id < proc.ID(n); id++ {
		s.addKey(id)
	}
	for _, id := range extraIDs {
		s.addKey(id)
	}
	return s
}

func (s *Ed25519) addKey(id proc.ID) {
	material := sha256.Sum256([]byte(fmt.Sprintf("ed25519|%s|%d", s.seed, id)))
	priv := ed25519.NewKeyFromSeed(material[:])
	s.priv[id] = priv
	pubAny := priv.Public()
	pub, ok := pubAny.(ed25519.PublicKey)
	if !ok {
		// ed25519.PrivateKey.Public always returns ed25519.PublicKey.
		panic("sig: unexpected public key type")
	}
	s.pub[id] = pub
}

// Sign implements Scheme.
func (s *Ed25519) Sign(id proc.ID, data []byte) (Signature, error) {
	priv, ok := s.priv[id]
	if !ok {
		return "", fmt.Errorf("sign: no key for %s", id)
	}
	return Signature(hex.EncodeToString(ed25519.Sign(priv, data))), nil
}

// Verify implements Scheme.
func (s *Ed25519) Verify(id proc.ID, data []byte, sig Signature) bool {
	pub, ok := s.pub[id]
	if !ok {
		return false
	}
	raw, err := hex.DecodeString(string(sig))
	if err != nil {
		return false
	}
	return ed25519.Verify(pub, data, raw)
}

// Name implements Scheme.
func (s *Ed25519) Name() string { return "ed25519" }

// Restricted wraps a Scheme and only allows signing for an explicit set of
// identities. Verification is unrestricted. This is how the simulator
// enforces unforgeability: each process (and the Byzantine adversary) gets
// a Restricted scheme over exactly the identities it controls.
type Restricted struct {
	inner   Scheme
	allowed proc.Set
}

var _ Scheme = (*Restricted)(nil)

// Restrict returns a scheme that signs only for ids in allowed.
func Restrict(inner Scheme, allowed proc.Set) *Restricted {
	return &Restricted{inner: inner, allowed: allowed}
}

// Sign implements Scheme, refusing identities outside the allowed set.
func (r *Restricted) Sign(id proc.ID, data []byte) (Signature, error) {
	if !r.allowed.Contains(id) {
		return "", fmt.Errorf("sign: %s not controlled by this signer (allowed %v)", id, r.allowed)
	}
	return r.inner.Sign(id, data)
}

// Verify implements Scheme.
func (r *Restricted) Verify(id proc.ID, data []byte, sig Signature) bool {
	return r.inner.Verify(id, data, sig)
}

// Name implements Scheme.
func (r *Restricted) Name() string { return r.inner.Name() + "-restricted" }
