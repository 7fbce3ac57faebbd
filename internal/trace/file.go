package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"confluence/internal/isa"
)

// Binary trace file format: a fixed header followed by fixed-width records.
// The format exists for offline inspection and interchange (cmd/tracegen);
// the simulator itself streams records straight from Executors.

var fileMagic = [8]byte{'C', 'F', 'L', 'T', 'R', 'C', '0', '1'}

const (
	headerBytes = len(fileMagic)
	recordBytes = 8 + 2 + 1 + 1 + 8 + 8 + 2 // Start,N,Kind,Taken,Target,Next,ReqType
)

// Writer serializes records to a stream.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	buf [recordBytes]byte
}

// NewWriter writes the header and returns a record writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. The on-disk form is canonical: branch fields
// (taken flag, target) are stored only for branch records, so any record a
// Writer emits reads back bit-identical through a Reader.
func (t *Writer) Write(rec *Record) error {
	if !rec.Br.Kind.Valid() {
		return fmt.Errorf("trace: cannot encode branch kind %d", uint8(rec.Br.Kind))
	}
	if rec.N < 1 || rec.N > 0xFFFF {
		return fmt.Errorf("trace: record instruction count %d out of range", rec.N)
	}
	if rec.ReqType < 0 || rec.ReqType > 0xFFFF {
		return fmt.Errorf("trace: record request type %d out of range", rec.ReqType)
	}
	if !isa.Aligned(rec.Start) {
		return fmt.Errorf("trace: record start %#x is not instruction-aligned", uint64(rec.Start))
	}
	b := t.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(rec.Start))
	binary.LittleEndian.PutUint16(b[8:], uint16(rec.N))
	b[10] = byte(rec.Br.Kind)
	b[11] = 0
	target := isa.Addr(0)
	if rec.Br.Kind.IsBranch() {
		target = rec.Br.Target
		if rec.Br.Taken {
			b[11] = 1
		}
	}
	if rec.ReqBoundary {
		b[11] |= 2
	}
	binary.LittleEndian.PutUint64(b[12:], uint64(target))
	binary.LittleEndian.PutUint64(b[20:], uint64(rec.Next))
	binary.LittleEndian.PutUint16(b[28:], uint16(rec.ReqType))
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	t.n++
	return nil
}

// Flush flushes buffered records; call once when done.
func (t *Writer) Flush() error { return t.w.Flush() }

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.n }

// Reader deserializes records written by Writer.
type Reader struct {
	r     *bufio.Reader
	buf   [recordBytes]byte
	batch []byte // bulk-read scratch for ReadBatch, grown on demand
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if magic != fileMagic {
		return nil, errors.New("trace: bad magic: not a trace file")
	}
	return &Reader{r: br}, nil
}

// newRawReader returns a record reader over a stream positioned at a
// record boundary, with the header already consumed or seeked past (the
// FileSource stripe skip).
func newRawReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Read fills rec with the next record; it returns io.EOF at end of stream.
// Corrupted records — an out-of-range branch-kind byte, unknown flag bits,
// a zero instruction count, or a branch-taken flag on a fall-through record
// — are rejected rather than silently decoded into impossible Records.
func (t *Reader) Read(rec *Record) error {
	if _, err := io.ReadFull(t.r, t.buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("trace: truncated record: %w", err)
		}
		return err
	}
	return decodeRecord(t.buf[:], rec)
}

// maxBatchBytes caps ReadBatch's scratch buffer (≈512 records); larger
// batches decode in chunks.
const maxBatchBytes = 512 * recordBytes

// ReadBatch decodes up to len(dst) records in one buffered read and one
// validation pass, returning how many were produced. On error the first n
// records are valid; a clean end of stream at a record boundary returns
// io.EOF, a partial trailing record the same truncation error Read reports.
func (t *Reader) ReadBatch(dst []Record) (int, error) {
	n := 0
	for n < len(dst) {
		want := (len(dst) - n) * recordBytes
		if want > maxBatchBytes {
			want = maxBatchBytes
		}
		if cap(t.batch) < want {
			t.batch = make([]byte, maxBatchBytes)
		}
		buf := t.batch[:want]
		m, err := io.ReadFull(t.r, buf)
		full := m / recordBytes
		for i := 0; i < full; i++ {
			if derr := decodeRecord(buf[i*recordBytes:(i+1)*recordBytes], &dst[n]); derr != nil {
				return n, derr
			}
			n++
		}
		if err != nil {
			if m%recordBytes != 0 {
				return n, fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return n, io.EOF
			}
			return n, err
		}
	}
	return n, nil
}

// decodeRecord validates and decodes one fixed-width record image. It is
// the single decode path behind Read and ReadBatch, so both reject exactly
// the same corruptions.
func decodeRecord(b []byte, rec *Record) error {
	rec.Start = isa.Addr(binary.LittleEndian.Uint64(b[0:]))
	if !isa.Aligned(rec.Start) {
		// Every instruction, and so every branch PC, sits on an
		// instruction boundary; the structures keyed by PC rely on it.
		return fmt.Errorf("trace: corrupt record: start %#x is not instruction-aligned", uint64(rec.Start))
	}
	rec.N = int(binary.LittleEndian.Uint16(b[8:]))
	if rec.N == 0 {
		return errors.New("trace: corrupt record: zero instruction count")
	}
	rec.Br.Kind = isa.BranchKind(b[10])
	if !rec.Br.Kind.Valid() {
		return fmt.Errorf("trace: corrupt record: branch kind byte %d out of range", b[10])
	}
	if b[11]&^3 != 0 {
		return fmt.Errorf("trace: corrupt record: unknown flag bits %#x", b[11])
	}
	rec.Br.Taken = b[11]&1 != 0
	rec.ReqBoundary = b[11]&2 != 0
	rec.Br.Target = isa.Addr(binary.LittleEndian.Uint64(b[12:]))
	rec.Next = isa.Addr(binary.LittleEndian.Uint64(b[20:]))
	rec.ReqType = int(binary.LittleEndian.Uint16(b[28:]))
	if rec.Br.Kind.IsBranch() {
		rec.Br.PC = rec.Start + isa.Addr((rec.N-1)*isa.InstrBytes)
	} else {
		if rec.Br.Taken {
			return errors.New("trace: corrupt record: taken flag on a fall-through record")
		}
		if rec.Br.Target != 0 {
			return errors.New("trace: corrupt record: branch target on a fall-through record")
		}
		rec.Br.PC = 0
	}
	return nil
}
