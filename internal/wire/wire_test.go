package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"pstore/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte(`{"txn":"noop","key":"k"}`),
		{},
		bytes.Repeat([]byte("x"), 4096),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestEncodeDecodeFrame(t *testing.T) {
	var buf bytes.Buffer
	in := Request{Txn: "addLineToCart", Key: "cart-1", Args: []byte(`{"sku":"s"}`)}
	if err := EncodeFrame(&buf, in); err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	var out Request
	if err := DecodeFrame(&buf, &out); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if out.Txn != in.Txn || out.Key != in.Key || string(out.Args) != string(in.Args) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for _, cut := range []int{1, 3, 4, len(raw) - 1} {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame oversize: got %v, want ErrFrameTooLarge", err)
	}
	// A corrupt length prefix must fail before allocating the claimed size.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame oversize prefix: got %v, want ErrFrameTooLarge", err)
	}
}

// TestErrorMapping pins the full code table: every typed engine error maps
// to its wire code, every code to its HTTP status, and retryable codes back
// to the same sentinel — the invariant that makes errors.Is transparent
// across the wire.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		err      error
		code     string
		status   int
		sentinel error
	}{
		{store.ErrOverload, CodeOverload, 429, store.ErrOverload},
		{store.ErrDeadlineExceeded, CodeDeadline, 504, store.ErrDeadlineExceeded},
		{store.ErrPartitionDown, CodePartitionDown, 503, store.ErrPartitionDown},
		{store.ErrUnknownTxn, CodeUnknownTxn, 400, store.ErrUnknownTxn},
		{store.ErrStopped, CodeStopped, 503, store.ErrStopped},
		{store.ErrInvalidMove, CodeBadRequest, 400, nil},
		{errors.New("insufficient stock"), CodeTxn, 422, nil},
	}
	for _, tc := range cases {
		if got := CodeOf(tc.err); got != tc.code {
			t.Errorf("CodeOf(%v) = %q, want %q", tc.err, got, tc.code)
		}
		// Wrapped errors must map identically.
		if got := CodeOf(fmt.Errorf("context: %w", tc.err)); got != tc.code {
			t.Errorf("CodeOf(wrapped %v) = %q, want %q", tc.err, got, tc.code)
		}
		if got := StatusOf(tc.code); got != tc.status {
			t.Errorf("StatusOf(%q) = %d, want %d", tc.code, got, tc.status)
		}
		if got := SentinelOf(tc.code); !errors.Is(got, tc.sentinel) && got != tc.sentinel {
			t.Errorf("SentinelOf(%q) = %v, want %v", tc.code, got, tc.sentinel)
		}
	}
	if got := CodeOf(nil); got != "" {
		t.Errorf("CodeOf(nil) = %q, want empty", got)
	}
	if got := StatusOf(""); got != 200 {
		t.Errorf("StatusOf(\"\") = %d, want 200", got)
	}
	if got := StatusOf(CodeBadRequest); got != 400 {
		t.Errorf("StatusOf(bad_request) = %d, want 400", got)
	}
	if got := StatusOf(CodeInternal); got != 500 {
		t.Errorf("StatusOf(internal) = %d, want 500", got)
	}
}
