package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// V2 is the protocol version the hello carries: a frame is a 4-byte
// big-endian length prefix followed by the binary body of binary.go.
// (Version 1 had JSON bodies; no server serves it.)
const V2 = 2

// hello opens a connection in both directions: four magic bytes and
// the protocol version. The client sends it first; the server answers
// with the same five bytes, or closes the connection without a byte
// when the peer opens with anything else. As a frame length the magic
// reads ~3.5 GiB, far beyond MaxFrame, so a hello is never mistaken
// for a frame and a frame never for a hello.
var hello = [5]byte{0xDC, 0xF2, 0x57, 0x50, V2}

var errBadHello = errors.New("wire: bad hello")

func writeHello(w io.Writer) error {
	_, err := w.Write(hello[:])
	return err
}

// readHello reads the peer's five opening bytes and checks that they
// are the hello.
func readHello(r io.Reader) error {
	var buf [len(hello)]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	if buf != hello {
		return fmt.Errorf("%w %x", errBadHello, buf)
	}
	return nil
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
