package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Source is the seam between workload supply and the timing model: anything
// that yields a core's retire-order basic-block stream. The synthetic
// Executor, file-backed trace replay (FileSource), and recorded in-memory
// streams (MemSource) all implement it, so the multi-core simulator is
// agnostic to where its instruction stream comes from.
//
// Next fills rec with the next executed basic block. Sources that model an
// endless server (Executor, looping FileSource) never return io.EOF; finite
// sources return io.EOF exactly once the stream is exhausted. Reset rewinds
// the source to its initial state so that an identical record sequence is
// replayed — a Source is deterministic in its construction parameters
// (seed, file offset), and Reset must restore exactly that determinism.
//
// NextBatch fills dst with up to len(dst) records and returns how many were
// produced; it is Next amortized — one interface dispatch (and, for file
// sources, one bulk decode) per batch instead of per basic block. The
// records NextBatch yields are exactly the records the same number of Next
// calls would have yielded. n < len(dst) only when an error (including
// io.EOF on finite sources) stopped the batch early; the first n records
// are valid either way. An errored source's subsequent behavior is
// implementation-defined (exhausted finite sources keep returning io.EOF;
// a corrupt stream is not resumable) — callers must treat any error as
// final for the stream. Implementations with no batched fast path can
// delegate to DefaultNextBatch.
type Source interface {
	Next(rec *Record) error
	NextBatch(dst []Record) (int, error)
	Reset() error
}

// DefaultNextBatch is the one-record adapter behind Source.NextBatch: it
// fills dst by calling next once per record. Sources without a bulk decode
// path implement NextBatch as DefaultNextBatch(s.Next, dst).
func DefaultNextBatch(next func(*Record) error, dst []Record) (int, error) {
	for i := range dst {
		if err := next(&dst[i]); err != nil {
			return i, err
		}
	}
	return len(dst), nil
}

// CoreSeed derives core i's executor seed from a workload seed. It is the
// single definition shared by the simulator's system assembly and trace
// capture, so a capture written with CoreSeed replays bit-identically
// against the live executors it stands in for.
func CoreSeed(workloadSeed uint64, core int) uint64 {
	return workloadSeed ^ uint64(0x9e3779b9*uint32(core+1))
}

// MemSource replays a recorded in-memory record sequence. With Loop set it
// wraps at the end (an endless source, like the Executor); otherwise Next
// returns io.EOF once exhausted.
type MemSource struct {
	Recs []Record
	Loop bool

	pos   int
	Wraps uint64
}

// NewMemSource builds a source over recs; loop selects endless replay.
func NewMemSource(recs []Record, loop bool) *MemSource {
	return &MemSource{Recs: recs, Loop: loop}
}

// RecordFrom drains n records from src into a new looping MemSource —
// a convenient way to freeze any source's prefix for tests.
func RecordFrom(src Source, n int) (*MemSource, error) {
	recs := make([]Record, n)
	for i := range recs {
		if err := src.Next(&recs[i]); err != nil {
			return nil, err
		}
	}
	return NewMemSource(recs, true), nil
}

// Next implements Source.
func (m *MemSource) Next(rec *Record) error {
	if m.pos >= len(m.Recs) {
		if !m.Loop || len(m.Recs) == 0 {
			return io.EOF
		}
		m.pos = 0
		m.Wraps++
	}
	*rec = m.Recs[m.pos]
	m.pos++
	return nil
}

// NextBatch implements Source with bulk copies: whole runs of the recorded
// sequence land in dst with one copy per wrap instead of one call per
// record.
func (m *MemSource) NextBatch(dst []Record) (int, error) {
	n := 0
	for n < len(dst) {
		if m.pos >= len(m.Recs) {
			if !m.Loop || len(m.Recs) == 0 {
				return n, io.EOF
			}
			m.pos = 0
			m.Wraps++
		}
		c := copy(dst[n:], m.Recs[m.pos:])
		m.pos += c
		n += c
	}
	return n, nil
}

// Reset implements Source.
func (m *MemSource) Reset() error {
	m.pos = 0
	m.Wraps = 0
	return nil
}

// FileSource streams records from a CFLTRC01 trace file. The source skips
// Offset records after the header when opened (and on Reset), which lets
// several cores share one capture at deterministic, de-correlated starting
// points; at end of file it wraps to the first record, modeling the endless
// request stream the capture sampled.
type FileSource struct {
	path   string
	f      *os.File
	r      *Reader
	offset uint64

	first   bool // no record read since (re)open: guards empty files
	Records uint64
	Wraps   uint64
}

// OpenFileSource opens a trace file, skipping offset records.
func OpenFileSource(path string, offset uint64) (*FileSource, error) {
	s := &FileSource{path: path, offset: offset}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s.f = f
	if err := s.rewind(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// rewind validates the header and positions the source at the configured
// record offset (modulo the file's record count). Records are fixed-width,
// so the skip is one Stat and one Seek, not offset decodes.
func (s *FileSource) rewind() error {
	if err := s.seekFirstRecord(); err != nil {
		return err
	}
	s.first = true
	if s.offset == 0 {
		return nil
	}
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	nRecs := (fi.Size() - int64(headerBytes)) / recordBytes
	if nRecs <= 0 {
		return fmt.Errorf("trace: %s: empty trace file", s.path)
	}
	s.first = false
	skip := int64(s.offset % uint64(nRecs))
	if skip == 0 {
		return nil
	}
	if _, err := s.f.Seek(int64(headerBytes)+skip*recordBytes, io.SeekStart); err != nil {
		return err
	}
	s.r = newRawReader(s.f)
	return nil
}

// seekFirstRecord repositions the reader just past the header.
func (s *FileSource) seekFirstRecord() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r, err := NewReader(s.f)
	if err != nil {
		return fmt.Errorf("trace: %s: %w", s.path, err)
	}
	s.r = r
	return nil
}

// Next implements Source, wrapping at end of file.
func (s *FileSource) Next(rec *Record) error {
	for {
		err := s.r.Read(rec)
		if err == nil {
			s.first = false
			s.Records++
			return nil
		}
		if !errors.Is(err, io.EOF) {
			return fmt.Errorf("trace: %s: %w", s.path, err)
		}
		if s.first {
			return fmt.Errorf("trace: %s: empty trace file", s.path)
		}
		if err := s.seekFirstRecord(); err != nil {
			return err
		}
		s.first = true
		s.Wraps++
	}
}

// NextBatch implements Source over the Reader's bulk decode path: one
// buffered read and one validation pass per batch, wrapping to the first
// record at end of file exactly as Next does.
func (s *FileSource) NextBatch(dst []Record) (int, error) {
	n := 0
	for n < len(dst) {
		k, err := s.r.ReadBatch(dst[n:])
		if k > 0 {
			s.first = false
			s.Records += uint64(k)
			n += k
		}
		if err == nil {
			continue
		}
		if !errors.Is(err, io.EOF) {
			return n, fmt.Errorf("trace: %s: %w", s.path, err)
		}
		if s.first {
			return n, fmt.Errorf("trace: %s: empty trace file", s.path)
		}
		if err := s.seekFirstRecord(); err != nil {
			return n, err
		}
		s.first = true
		s.Wraps++
	}
	return n, nil
}

// Reset implements Source.
func (s *FileSource) Reset() error {
	s.Records, s.Wraps = 0, 0
	return s.rewind()
}

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }

// Path returns the file backing this source.
func (s *FileSource) Path() string { return s.path }

// DirStripeRecords is the per-wrap record offset applied when more cores
// replay a capture directory than it has files: core i reads file i mod F
// starting DirStripeRecords*(i/F) records in, so sharing cores walk the
// same capture from deterministic, well-separated points.
const DirStripeRecords = 4096

// TraceFiles lists the capture files of a directory (sorted by name, the
// order cores are assigned in). A capture directory holds one "*.trace"
// file per captured core (see cmd/tracegen -cores). dir is a plain path,
// never a pattern: metacharacters in it match only themselves.
func TraceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("trace: no *.trace files in %s: %w", dir, err)
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".trace") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("trace: no *.trace files in %s", dir)
	}
	return files, nil
}

// OpenDirSource opens core's replay source over a capture directory,
// striping cores across the directory's files: core i reads file i mod F
// with a record offset of DirStripeRecords*(i/F). With at least as many
// files as cores, every core replays its own file from the start — the
// configuration that reproduces a live multi-core run exactly.
func OpenDirSource(dir string, core int) (*FileSource, error) {
	if core < 0 {
		return nil, fmt.Errorf("trace: negative core %d", core)
	}
	files, err := TraceFiles(dir)
	if err != nil {
		return nil, err
	}
	offset := uint64(core/len(files)) * DirStripeRecords
	return OpenFileSource(files[core%len(files)], offset)
}

// Capture streams records from src into dst (header included) until at
// least instr instructions have been written, returning the record and
// instruction counts. It is the single capture loop behind CaptureTrace
// and tracegen, so every capture path writes byte-identical files.
func Capture(dst io.Writer, src Source, instr uint64) (records, instructions uint64, err error) {
	return CaptureCtx(context.Background(), dst, src, instr)
}

// captureCheckRecords is how often the capture loop polls its context: a
// few thousand fixed-width records between polls keeps cancellation
// latency in the microseconds without measurable per-record cost.
const captureCheckRecords = 4096

// CaptureCtx is Capture honoring mid-capture cancellation: the loop polls
// ctx every captureCheckRecords records and abandons the (truncated,
// unusable) file with ctx's error. A capture that completes is
// byte-identical whether or not a context is attached.
func CaptureCtx(ctx context.Context, dst io.Writer, src Source, instr uint64) (records, instructions uint64, err error) {
	tw, err := NewWriter(dst)
	if err != nil {
		return 0, 0, err
	}
	var rec Record
	for instructions < instr {
		if records%captureCheckRecords == 0 {
			if err := ctx.Err(); err != nil {
				return records, instructions, err
			}
		}
		if err := src.Next(&rec); err != nil {
			return records, instructions, err
		}
		if err := tw.Write(&rec); err != nil {
			return records, instructions, err
		}
		records++
		instructions += uint64(rec.N)
	}
	return records, instructions, tw.Flush()
}

// Compile-time interface checks.
var (
	_ Source = (*Executor)(nil)
	_ Source = (*MemSource)(nil)
	_ Source = (*FileSource)(nil)
)
