package msg

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// large is a payload type whose encodings are long enough for the
// identity level of CachedDecoder.
type large struct{ S string }

// largeBody encodes tag padded to at least 2*identityMin bytes; every tag
// of one length gives a body of one length.
func largeBody(tag string) string {
	return Encode(large{S: tag + strings.Repeat(".", 2*identityMin)})
}

func TestCachedDecoderSharesLargeBodyAcrossAllocations(t *testing.T) {
	decode := CachedDecoder[large]()
	body := largeBody("shared")
	first, ok := decode(body)
	if !ok {
		t.Fatalf("%d-byte body did not decode", len(body))
	}
	for i, again := range []string{body, strings.Clone(body), strings.Clone(body)} {
		if got, ok := decode(again); !ok || got != first {
			t.Errorf("call %d on the same bytes returned %p (%t), the first returned %p", i, got, ok, first)
		}
	}
}

func TestCachedDecoderKeepsLargeGarbageRefused(t *testing.T) {
	decode := CachedDecoder[large]()
	garbage := "{" + strings.Repeat("x", 2*identityMin)
	for call := 1; call <= 3; call++ {
		if v, ok := decode(garbage); ok || v != nil {
			t.Fatalf("call %d: %d bytes of garbage decoded to %v", call, len(garbage), v)
		}
	}
}

// TestCachedDecoderNoStaleIdentityHit decodes large bodies and a copy of
// each, drops them, collects, and decodes fresh bodies of the same length
// and other content, round after round. The memo keeps each body's first
// allocation; a copy is kept by nothing but the identity level. A fresh
// body that lands where a dropped copy was must not be taken for it.
func TestCachedDecoderNoStaleIdentityHit(t *testing.T) {
	decode := CachedDecoder[large]()
	for round := 0; round < 20; round++ {
		for i := 0; i < 64; i++ {
			want := fmt.Sprintf("r%03d-b%03d", round, i)
			body := largeBody(want)
			for j, b := range []string{body, strings.Clone(body)} {
				if v, ok := decode(b); !ok || !strings.HasPrefix(v.S, want) {
					t.Fatalf("body %s (allocation %d) decoded to %.9v (%t)", want, j, v, ok)
				}
			}
		}
		runtime.GC()
	}
}

// TestCachedDecoderConcurrentLargeBodies has eight goroutines decode
// distinct large bodies through one decoder, each body from several
// allocations; under -race it is the check that the identity level's
// entries are published safely.
func TestCachedDecoderConcurrentLargeBodies(t *testing.T) {
	decode := CachedDecoder[large]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := largeBody(fmt.Sprintf("g%d-b%d", g, i%16))
				if i%3 == 0 {
					body = strings.Clone(body)
				}
				var want large
				if err := Decode(body, &want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := decode(body); !ok || *got != want {
					t.Errorf("goroutine %d: body %d decoded to %.12v (%t), Decode gives %.12q", g, i%16, got, ok, want.S)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
