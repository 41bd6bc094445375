package transport_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"expensive/internal/transport"
)

// FuzzReadFrame holds the one stream decoder, which reads the dist
// coordinator link and the tcpnet mesh, to its contract on hostile bytes.
// It never panics; it accepts only a frame that announced a length in
// (0, limit] and was present in full; it consumes exactly that frame, so
// a reader that owns the stream afterwards (tcpnet's pump after the hello)
// decodes the next frame as if it stood alone; and a Frame it accepted
// round-trips through WriteFrame. The seeds are under testdata/fuzz/.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, limit uint16, data []byte) {
		r := bytes.NewReader(data)
		var first transport.Frame
		err := transport.ReadFrame(r, int(limit), &first)
		if len(data) < 4 {
			if err == nil {
				t.Fatalf("accepted a frame from %d bytes", len(data))
			}
			return
		}
		n := int64(binary.BigEndian.Uint32(data))
		if n == 0 || n > int64(limit) || 4+n > int64(len(data)) {
			if err == nil {
				t.Fatalf("accepted a frame announcing %d bytes at limit %d with %d present", n, limit, len(data)-4)
			}
			return
		}
		if consumed := int64(len(data) - r.Len()); consumed != 4+n {
			t.Fatalf("read %d bytes of a %d-byte frame", consumed, 4+n)
		}

		var next, alone json.RawMessage
		errNext := transport.ReadFrame(bufio.NewReader(r), int(limit), &next)
		errAlone := transport.ReadFrame(bytes.NewReader(data[4+n:]), int(limit), &alone)
		if (errNext == nil) != (errAlone == nil) || !bytes.Equal(next, alone) {
			t.Fatalf("next frame after the first: %q, %v; on its own: %q, %v", next, errNext, alone, errAlone)
		}

		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := transport.WriteFrame(&buf, first); err != nil {
			t.Fatalf("WriteFrame(%+v): %v", first, err)
		}
		var back transport.Frame
		if err := transport.ReadFrame(&buf, transport.MaxFrame, &back); err != nil || back != first || buf.Len() != 0 {
			t.Fatalf("round trip of %+v: got %+v, %v, %d bytes left", first, back, err, buf.Len())
		}
	})
}
