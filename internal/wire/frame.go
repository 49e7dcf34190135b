package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Protocol versions. Both share the frame format — a 4-byte big-endian
// length prefix followed by the body — and differ only in the body
// codec: v1 bodies are JSON, v2 bodies are the hand-rolled binary
// encoding in binary.go with BSON-lite document payloads.
const (
	V1 = 1 // JSON bodies; the format old clients and debug tooling speak
	V2 = 2 // binary bodies with BSON-lite documents
)

// helloMagic opens a client hello: 4 magic bytes followed by one byte
// carrying the highest version the client speaks. The server replies
// with the magic and the version the connection will use,
// min(client max, V2). The magic is chosen so that a v1-only server
// reading it as a frame length sees ~3.5 GiB — far beyond MaxFrame —
// and drops the connection with a clean error, which the client takes
// as its cue to redial in JSON mode. A client that never sends a hello
// gets a v1 connection; the first four bytes of a real v1 frame are a
// length ≤ MaxFrame and can never collide with the magic.
var helloMagic = [4]byte{0xDC, 0xF2, 0x57, 0x50}

// helloLen is the size of both the client hello and the server reply.
const helloLen = 5

// writeHello sends a client hello advertising maxVersion.
func writeHello(w io.Writer, maxVersion byte) error {
	var buf [helloLen]byte
	copy(buf[:4], helloMagic[:])
	buf[4] = maxVersion
	_, err := w.Write(buf[:])
	return err
}

// readHelloReply reads and validates the server's handshake reply,
// returning the negotiated version.
func readHelloReply(r io.Reader) (byte, error) {
	var buf [helloLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if [4]byte(buf[:4]) != helloMagic {
		return 0, fmt.Errorf("wire: bad handshake reply %x", buf[:4])
	}
	v := buf[4]
	if v < V1 || v > V2 {
		return 0, fmt.Errorf("wire: server negotiated unsupported version %d", v)
	}
	return v, nil
}

// negotiate performs the server side of the handshake on a buffered
// reader. It peeks at the first four bytes: a hello magic means a
// versioned client (consume the hello, reply, speak the negotiated
// version); anything else is the length prefix of a v1 frame from a
// client that predates negotiation — leave it unread and speak JSON.
func negotiate(br *bufio.Reader, w io.Writer) (byte, error) {
	head, err := br.Peek(4)
	if err != nil {
		return 0, err
	}
	if [4]byte(head) != helloMagic {
		return V1, nil
	}
	var hello [helloLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return 0, err
	}
	ver := hello[4]
	if ver > V2 {
		ver = V2
	}
	if ver < V1 {
		return 0, fmt.Errorf("wire: client advertised version %d", hello[4])
	}
	var reply [helloLen]byte
	copy(reply[:4], helloMagic[:])
	reply[4] = ver
	if _, err := w.Write(reply[:]); err != nil {
		return 0, err
	}
	return ver, nil
}

// framePool recycles frame-encoding buffers across requests. Buffers
// that grew beyond pooledBufCap are dropped rather than pooled, so one
// huge response does not pin memory forever.
const pooledBufCap = 1 << 20

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return framePool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) > pooledBufCap {
		return
	}
	*p = (*p)[:0]
	framePool.Put(p)
}

// beginFrame reserves the 4-byte length header; finishFrame patches it
// once the body has been appended after it.
func beginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0)
}

func finishFrame(b []byte, start int) error {
	n := len(b) - start - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start:start+4], uint32(n))
	return nil
}

// frameReader reads length-prefixed frame bodies into a buffer reused
// across calls — one allocation per connection, not per frame. The
// returned slice is only valid until the next call; decoders must copy
// what they keep (BSON-lite decoding does: each document is copied
// once into a string its keys and values slice, byte values are
// copied).
//
// The reader is resumable across transient read errors: partial header
// or body progress is retained in the struct, so a caller that gets a
// read-deadline timeout (the server's idle-timeout probe) can call
// next again and continue mid-frame without desynchronizing the
// stream.
type frameReader struct {
	r   *bufio.Reader
	buf []byte

	hdr    [4]byte
	hn     int  // header bytes read so far
	inBody bool // header complete; bn tracks body progress
	bn     int
}

// midFrame reports whether a frame is partially read — the signal that
// a timed-out connection is stalled mid-frame rather than idle between
// requests.
func (fr *frameReader) midFrame() bool { return fr.hn > 0 || fr.inBody }

// buffered reports whether the next frame already sits whole in the
// read buffer, so the next call returns without touching the socket.
func (fr *frameReader) buffered() bool {
	n := fr.r.Buffered()
	if fr.midFrame() || n < 4 {
		return false
	}
	hdr, _ := fr.r.Peek(4) // cannot fail: four bytes are buffered
	return n-4 >= int(binary.BigEndian.Uint32(hdr))
}

func (fr *frameReader) next() ([]byte, error) {
	if !fr.inBody {
		for fr.hn < 4 {
			n, err := fr.r.Read(fr.hdr[fr.hn:])
			fr.hn += n
			if err != nil {
				return nil, err
			}
		}
		size := binary.BigEndian.Uint32(fr.hdr[:])
		if size > MaxFrame {
			return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
		}
		if uint32(cap(fr.buf)) < size {
			fr.buf = make([]byte, size)
		}
		fr.buf = fr.buf[:size]
		fr.bn = 0
		fr.inBody = true
	}
	for fr.bn < len(fr.buf) {
		n, err := fr.r.Read(fr.buf[fr.bn:])
		fr.bn += n
		if err != nil {
			return nil, err
		}
	}
	fr.hn, fr.inBody = 0, false
	return fr.buf, nil
}
