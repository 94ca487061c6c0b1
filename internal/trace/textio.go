package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"subcache/internal/addr"
)

// This file implements a Dinero-style ("din") text trace format:
//
//	<label> <hex address> [<size>]
//
// one reference per line, where label is 0 (data read), 1 (data write)
// or 2 (instruction fetch), the address is hexadecimal with or without a
// 0x prefix, and the optional size is a decimal byte count (default 1
// word is the *reader's* concern; we default to size 1).  Blank lines
// and lines starting with '#' are ignored.  This is the interchange
// format of the classic Dinero cache simulators, which makes externally
// produced traces usable with cmd/cachesim.

const (
	dinRead   = 0
	dinWrite  = 1
	dinIFetch = 2
)

func kindToDin(k Kind) int {
	switch k {
	case Read:
		return dinRead
	case Write:
		return dinWrite
	case IFetch:
		return dinIFetch
	}
	panic(fmt.Sprintf("trace: unknown kind %d", k))
}

func dinToKind(label int) (Kind, error) {
	switch label {
	case dinRead:
		return Read, nil
	case dinWrite:
		return Write, nil
	case dinIFetch:
		return IFetch, nil
	}
	return 0, fmt.Errorf("trace: unknown din label %d", label)
}

// TextWriter writes references in din text format.
type TextWriter struct {
	w *bufio.Writer
}

// NewTextWriter returns a TextWriter emitting to w.  Call Flush when
// done.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriter(w)}
}

// Write emits one reference.
func (t *TextWriter) Write(r Ref) error {
	_, err := fmt.Fprintf(t.w, "%d %x %d\n", kindToDin(r.Kind), uint64(r.Addr), r.Size)
	return err
}

// Flush writes any buffered data to the underlying writer.
func (t *TextWriter) Flush() error { return t.w.Flush() }

// TextReader reads references in din text format and implements Source.
type TextReader struct {
	sc   *bufio.Scanner
	line int
	err  error // first parse or scan error, latched
}

// NewTextReader returns a Source reading din text from r.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &TextReader{sc: sc}
}

// fail latches the reader on its first error: every subsequent Next
// returns the same error instead of silently resuming on the line after
// the bad record, which would drop it from the trace.
func (t *TextReader) fail(err error) (Ref, error) {
	t.err = err
	return Ref{}, err
}

// Next implements Source.  After any error other than io.EOF the
// reader is stuck: all further calls return that same error.
func (t *TextReader) Next() (Ref, error) {
	if t.err != nil {
		return Ref{}, t.err
	}
	for t.sc.Scan() {
		t.line++
		line := strings.TrimSpace(t.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return t.fail(fmt.Errorf("trace: line %d: want 2 or 3 fields, got %d", t.line, len(fields)))
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			return t.fail(fmt.Errorf("trace: line %d: bad label %q: %v", t.line, fields[0], err))
		}
		kind, err := dinToKind(label)
		if err != nil {
			return t.fail(fmt.Errorf("trace: line %d: %v", t.line, err))
		}
		hexs := strings.TrimPrefix(strings.TrimPrefix(fields[1], "0x"), "0X")
		a, err := strconv.ParseUint(hexs, 16, 64)
		if err != nil {
			return t.fail(fmt.Errorf("trace: line %d: bad address %q: %v", t.line, fields[1], err))
		}
		size := uint64(1)
		if len(fields) == 3 {
			size, err = strconv.ParseUint(fields[2], 10, 8)
			if err != nil || size == 0 {
				return t.fail(fmt.Errorf("trace: line %d: bad size %q", t.line, fields[2]))
			}
		}
		return Ref{Addr: addr.Addr(a), Kind: kind, Size: uint8(size)}, nil
	}
	if err := t.sc.Err(); err != nil {
		return t.fail(err)
	}
	return Ref{}, io.EOF
}
