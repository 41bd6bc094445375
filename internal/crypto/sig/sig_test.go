package sig

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"expensive/internal/proc"
)

func schemes(t *testing.T) map[string]Scheme {
	t.Helper()
	return map[string]Scheme{
		"ideal":   NewIdeal("test-seed"),
		"ed25519": NewEd25519("test-seed", 8),
	}
}

func TestSignVerify(t *testing.T) {
	for name, s := range schemes(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("the-message")
			g, err := s.Sign(3, data)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if !s.Verify(3, data, g) {
				t.Error("valid signature rejected")
			}
			if s.Verify(4, data, g) {
				t.Error("signature accepted for wrong signer")
			}
			if s.Verify(3, []byte("tampered"), g) {
				t.Error("signature accepted for tampered message")
			}
			if s.Verify(3, data, g+"00") {
				t.Error("tampered signature accepted")
			}
			if s.Verify(3, data, "zz-not-hex") {
				t.Error("garbage signature accepted")
			}
		})
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a, b := NewIdeal("seed-x"), NewIdeal("seed-x")
	data := []byte("m")
	ga, _ := a.Sign(1, data)
	if !b.Verify(1, data, ga) {
		t.Error("same-seed ideal schemes do not share a PKI")
	}
	c := NewIdeal("seed-y")
	if c.Verify(1, data, ga) {
		t.Error("different-seed ideal scheme accepted foreign signature")
	}

	e1, e2 := NewEd25519("seed-x", 4), NewEd25519("seed-x", 4)
	ge, _ := e1.Sign(2, data)
	if !e2.Verify(2, data, ge) {
		t.Error("same-seed ed25519 schemes do not share a PKI")
	}
}

func TestEd25519ExtraIDs(t *testing.T) {
	s := NewEd25519("seed", 3, 1000, 1001)
	data := []byte("client-tx")
	g, err := s.Sign(1000, data)
	if err != nil {
		t.Fatalf("Sign client: %v", err)
	}
	if !s.Verify(1000, data, g) {
		t.Error("client signature rejected")
	}
	if _, err := s.Sign(55, data); err == nil {
		t.Error("expected error signing for unknown id")
	}
	if s.Verify(55, data, g) {
		t.Error("verify for unknown id succeeded")
	}
}

func TestRestricted(t *testing.T) {
	inner := NewIdeal("seed")
	r := Restrict(inner, proc.NewSet(1, 2))
	data := []byte("m")
	if _, err := r.Sign(1, data); err != nil {
		t.Errorf("allowed id refused: %v", err)
	}
	if _, err := r.Sign(3, data); err == nil {
		t.Error("restricted signer signed for foreign id — forgery possible")
	}
	// Verification is unrestricted.
	g, _ := inner.Sign(3, data)
	if !r.Verify(3, data, g) {
		t.Error("restricted scheme rejects valid foreign signature")
	}
	if r.Name() == "" || inner.Name() == "" {
		t.Error("names empty")
	}
}

func TestUnforgeabilityProperty(t *testing.T) {
	s := NewIdeal("prop-seed")
	f := func(data []byte, wrongSigner uint8) bool {
		signer := proc.ID(wrongSigner % 8)
		other := proc.ID((int(signer) + 1) % 8)
		g, err := s.Sign(signer, data)
		if err != nil {
			return false
		}
		// A signature never verifies for a different identity or message.
		if s.Verify(other, data, g) {
			return false
		}
		return s.Verify(signer, data, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// referenceSign is the Ideal signature computed with crypto/hmac from its
// definition: the master key is SHA-256 of the seed, id's key is the
// master key's HMAC over "key|" and id as eight big-endian bytes, and the
// signature is id's key's HMAC over data, hex-encoded.
func referenceSign(seed string, id proc.ID, data []byte) Signature {
	master := sha256.Sum256([]byte("ideal-master|" + seed))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(int64(id)))
	km := hmac.New(sha256.New, master[:])
	km.Write([]byte("key|"))
	km.Write(buf[:])
	mac := hmac.New(sha256.New, km.Sum(nil))
	mac.Write(data)
	return Signature(hex.EncodeToString(mac.Sum(nil)))
}

func TestIdealMatchesHMAC(t *testing.T) {
	s := NewIdeal("hmac-seed")
	inputs := [][]byte{
		nil,
		{},
		[]byte("m"),
		[]byte(strings.Repeat("a", 63)),
		[]byte(strings.Repeat("b", 64)),
		[]byte(strings.Repeat("c", 65)),
		[]byte(strings.Repeat("d", 300)),
	}
	// Members of Π, blockchain clients outside it, and a negative id.
	for _, id := range []proc.ID{0, 1, 7, 1000, 1 << 40, -1} {
		for _, data := range inputs {
			want := referenceSign("hmac-seed", id, data)
			// The first Sign computes the signature, the second reads it
			// back from the cache.
			for pass := 0; pass < 2; pass++ {
				got, err := s.Sign(id, data)
				if err != nil {
					t.Fatalf("Sign(%v, %d bytes): %v", id, len(data), err)
				}
				if got != want {
					t.Fatalf("Sign(%v, %d bytes) pass %d = %s, crypto/hmac gives %s", id, len(data), pass, got, want)
				}
			}
			if !s.Verify(id, data, want) {
				t.Errorf("Verify(%v, %d bytes) rejects the crypto/hmac signature", id, len(data))
			}
		}
	}
}

// TestIdealCacheCap signs past sigCacheCap: every signature stays
// correct, and the cache stops at the cap, summed over identities.
func TestIdealCacheCap(t *testing.T) {
	s := NewIdeal("cap-seed")
	const ids = 3
	total := sigCacheCap + 500
	for i := 0; i < total; i++ {
		id, data := proc.ID(i%ids), []byte(fmt.Sprintf("datum-%d", i))
		got, _ := s.Sign(id, data)
		if i >= sigCacheCap && got != referenceSign("cap-seed", id, data) {
			t.Fatalf("signature %d past the cache cap differs from crypto/hmac's", i)
		}
		if !s.Verify(id, data, got) {
			t.Fatalf("signature %d rejected", i)
		}
	}
	cached := 0
	for _, rec := range s.ids {
		cached += len(rec.sigs)
	}
	if cached != sigCacheCap || s.nsig != sigCacheCap {
		t.Errorf("cache holds %d signatures (counted %d) after %d distinct signs, want the cap %d", cached, s.nsig, total, sigCacheCap)
	}
}

// TestIdealConcurrentSignVerify has goroutines sign and verify
// overlapping (id, data) pairs on one scheme, as a campaign's workers do;
// run it under -race.
func TestIdealConcurrentSignVerify(t *testing.T) {
	s := NewIdeal("race-seed")
	const workers, pairs = 8, 64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*pairs; i++ {
				k := (i + w*7) % pairs
				id, data := proc.ID(k%5), []byte(fmt.Sprintf("pair-%d", k))
				got, err := s.Sign(id, data)
				if err != nil || got != referenceSign("race-seed", id, data) {
					errs <- fmt.Errorf("worker %d: Sign(%v, %q) = %s, %v", w, id, data, got, err)
					return
				}
				if !s.Verify(id, data, got) || s.Verify(id+1, data, got) {
					errs <- fmt.Errorf("worker %d: Verify wrong for (%v, %q)", w, id, data)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIdealHitAllocations pins a cache hit, the common case of an
// authenticated sweep, to no allocation, for Sign and for Verify.
func TestIdealHitAllocations(t *testing.T) {
	s := NewIdeal("alloc-seed")
	data := []byte("a signed relay chain, long enough to be a real payload")
	g, _ := s.Sign(2, data)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = s.Sign(2, data) }); allocs != 0 {
		t.Errorf("cache-hit Sign allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Verify(2, data, g) }); allocs != 0 {
		t.Errorf("cache-hit Verify allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkIdealSign(b *testing.B) {
	s := NewIdeal("bench")
	data := []byte("benchmark-message")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(1, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	s := NewEd25519("bench", 4)
	data := []byte("benchmark-message")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(1, data); err != nil {
			b.Fatal(err)
		}
	}
}
