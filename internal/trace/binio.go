package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"subcache/internal/addr"
)

// This file implements the compact binary trace format ".strc"
// (subcache trace).  Layout, all little-endian:
//
//	header:  magic "SBCT" (4 bytes) | version uint16 | reserved uint16
//	         | count uint64 (0 if unknown at write time)
//	record:  kind uint8 | size uint8 | addr uint64
//
// Ten bytes per reference keeps a one-million-reference trace at ~10 MB
// and decoding branch-free.

const (
	binMagic   = "SBCT"
	binVersion = 1
	recordLen  = 10
	headerLen  = 16
)

// BinWriter writes references in .strc binary format.
type BinWriter struct {
	w     *bufio.Writer
	count uint64
}

// NewBinWriter writes a header to w and returns a BinWriter.  Call
// Flush when done.  The header's count field is written as 0 (unknown);
// readers rely on EOF.
func NewBinWriter(w io.Writer) (*BinWriter, error) {
	bw := &BinWriter{w: bufio.NewWriter(w)}
	var hdr [headerLen]byte
	copy(hdr[:4], binMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binVersion)
	if _, err := bw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return bw, nil
}

// Write emits one reference.
func (b *BinWriter) Write(r Ref) error {
	var rec [recordLen]byte
	rec[0] = byte(r.Kind)
	rec[1] = r.Size
	binary.LittleEndian.PutUint64(rec[2:], uint64(r.Addr))
	b.count++
	_, err := b.w.Write(rec[:])
	return err
}

// Count returns the number of references written so far.
func (b *BinWriter) Count() uint64 { return b.count }

// Flush writes any buffered data to the underlying writer.
func (b *BinWriter) Flush() error { return b.w.Flush() }

// BinReader reads .strc binary traces and implements Source.  Errors
// are attributed (record index and byte offset) and latched: after any
// error other than io.EOF, every subsequent Next returns the same
// error, so a corrupt or truncated stream can never resume mid-file and
// silently skew counters downstream.
type BinReader struct {
	r   *bufio.Reader
	rec uint64 // records successfully decoded so far
	err error  // latched failure
}

// NewBinReader validates the header of r and returns a Source.
func NewBinReader(r io.Reader) (*BinReader, error) {
	br := &BinReader{r: bufio.NewReader(r)}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading strc header: %w", err)
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("trace: bad magic %q, want %q", hdr[:4], binMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binVersion {
		return nil, fmt.Errorf("trace: unsupported strc version %d", v)
	}
	return br, nil
}

// Next implements Source.
func (b *BinReader) Next() (Ref, error) {
	if b.err != nil {
		return Ref{}, b.err
	}
	var rec [recordLen]byte
	if _, err := io.ReadFull(b.r, rec[:]); err != nil {
		if err == io.EOF {
			return Ref{}, err // clean end of stream; not latched
		}
		return Ref{}, b.fail(fmt.Errorf("trace: truncated strc record %d (offset %d): %w",
			b.rec, b.offset(), err))
	}
	if rec[0] >= byte(numKinds) {
		return Ref{}, b.fail(fmt.Errorf("trace: corrupt strc record %d (offset %d): kind %d",
			b.rec, b.offset(), rec[0]))
	}
	b.rec++
	return Ref{
		Kind: Kind(rec[0]),
		Size: rec[1],
		Addr: addr.Addr(binary.LittleEndian.Uint64(rec[2:])),
	}, nil
}

// offset is the byte position of the record being decoded.
func (b *BinReader) offset() uint64 { return headerLen + b.rec*recordLen }

func (b *BinReader) fail(err error) error {
	b.err = err
	return err
}
