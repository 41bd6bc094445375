package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
)

// MaxFrame bounds one stream frame (64 MiB): far above any real message,
// low enough that a corrupt length prefix cannot allocate the machine
// away.
const MaxFrame = 64 << 20

// WriteFrame writes v as one stream frame: a 4-byte big-endian length
// prefix followed by v's JSON body, in a single Write, so the frames of
// writers that serialize their calls never interleave on the stream. A
// body over MaxFrame is refused before anything is written. A socket
// error wraps ErrTimeout or ErrClosed.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("transport: marshal frame: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("transport: frame %d bytes exceeds %d", len(body), MaxFrame)
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", classify(err))
	}
	return nil
}

// ReadFrame reads one stream frame written by WriteFrame and decodes its
// body into v. It consumes exactly the frame's bytes, so the next frame on
// r stays intact. A length outside (0, limit] is refused before anything
// is allocated for the body: the limit is the caller's bound on what the
// peer may announce. A socket error wraps ErrTimeout or ErrClosed.
func ReadFrame(r io.Reader, limit int, v any) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return fmt.Errorf("transport: read frame length: %w", classify(err))
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 || int64(n) > int64(limit) {
		return fmt.Errorf("transport: frame length %d outside (0, %d]", n, limit)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("transport: read frame body: %w", classify(err))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("transport: decode frame: %w", err)
	}
	return nil
}

// classify folds raw socket errors into the transport sentinels, so the
// dist scheduler's dead-worker detector and the worker's reconnect loop
// decide with errors.Is instead of string matching: a blown read deadline
// is ErrTimeout (the peer stalled), a vanished connection is ErrClosed
// (the peer is gone, or we were told to go).
func classify(err error) error {
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w (%v)", ErrTimeout, err)
	case errors.Is(err, net.ErrClosed), errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w (%v)", ErrClosed, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w (%v)", ErrTimeout, err)
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return fmt.Errorf("%w (%v)", ErrClosed, err)
	}
	return err
}
