package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"confluence/internal/isa"
)

// canonical returns the on-disk form of rec: the Writer stores branch
// fields only for branch records and the Reader reconstructs Br.PC, so a
// round trip reproduces exactly this.
func canonical(rec Record) Record {
	out := rec
	if rec.Br.Kind.IsBranch() {
		out.Br.PC = rec.Start + isa.Addr((rec.N-1)*isa.InstrBytes)
	} else {
		out.Br = BranchInfo{Kind: rec.Br.Kind}
	}
	return out
}

// FuzzTraceRoundTrip drives arbitrary records through Writer then Reader
// and demands either a clean encode-time rejection or a bit-identical
// decode — no silent mangling in between.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint64(0x40_0000), uint16(4), byte(isa.BrCond), true, false, uint64(0x40_0040), uint64(0x40_0040), uint16(3))
	f.Add(uint64(0x40_1000), uint16(1), byte(isa.BrNone), false, true, uint64(0), uint64(0x40_1004), uint16(0))
	f.Add(uint64(0x7FFF_FFFF_FFFC), uint16(15), byte(isa.BrRet), true, false, uint64(0x1234), uint64(0x1234), uint16(0xFFFF))
	f.Add(uint64(0x7FFF_FFFF_FFFF), uint16(15), byte(isa.BrRet), true, false, uint64(0x1234), uint64(0x1234), uint16(0xFFFF))
	f.Add(uint64(1), uint16(0), byte(200), true, true, ^uint64(0), ^uint64(0), uint16(1))

	f.Fuzz(func(t *testing.T, start uint64, n uint16, kind byte, taken, boundary bool, target, next uint64, reqType uint16) {
		rec := Record{
			Start:       isa.Addr(start),
			N:           int(n),
			Next:        isa.Addr(next),
			ReqType:     int(reqType),
			ReqBoundary: boundary,
			Br: BranchInfo{
				Kind:   isa.BranchKind(kind),
				Taken:  taken,
				Target: isa.Addr(target),
			},
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Write(&rec)
		if !rec.Br.Kind.Valid() || rec.N < 1 || !isa.Aligned(rec.Start) {
			if err == nil {
				t.Fatalf("Writer accepted invalid record %+v", rec)
			}
			return
		}
		if err != nil {
			t.Fatalf("Writer rejected valid record %+v: %v", rec, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if err := r.Read(&got); err != nil {
			t.Fatalf("Reader failed on Writer output for %+v: %v", rec, err)
		}
		if want := canonical(rec); got != want {
			t.Fatalf("round trip diverged:\n  wrote %+v\n  want  %+v\n  read  %+v", rec, want, got)
		}
		if err := r.Read(&got); err != io.EOF {
			t.Fatalf("expected EOF after one record, got %v", err)
		}
	})
}

// corruptedCorpus returns a valid two-record stream plus targeted
// corruptions of it: header damage, truncation, and bad field bytes.
func corruptedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	recs := []Record{
		{Start: 0x40_0000, N: 3, Next: 0x40_0040, Br: BranchInfo{PC: 0x40_0008, Kind: isa.BrUncond, Taken: true, Target: 0x40_0040}},
		{Start: 0x40_0040, N: 5, Next: 0x40_0054, ReqBoundary: true},
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(pos int, b byte) []byte {
		m := bytes.Clone(valid)
		m[pos] = b
		return m
	}
	const hdr = 8
	return [][]byte{
		valid,
		{},                                 // empty input
		valid[:4],                          // truncated magic
		valid[:hdr],                        // header only
		valid[:hdr+recordBytes/2],          // truncated record
		valid[:len(valid)-1],               // truncated final record
		mutate(0, 'X'),                     // bad magic
		mutate(hdr+10, 0xEE),               // out-of-range branch kind byte
		mutate(hdr+11, 0x80),               // unknown flag bits
		mutate(hdr+8, 0), mutate(hdr+9, 0), // zero instruction count
		mutate(hdr+recordBytes+11, 0x01), // taken flag on a fall-through record
		mutate(hdr+recordBytes+12, 0xDE), // branch target on a fall-through record
		mutate(hdr, 0x02),                // start not instruction-aligned
	}
}

// FuzzReaderCorrupt feeds arbitrary byte streams to the Reader: it must
// never panic, and every record it does yield must be well-formed.
func FuzzReaderCorrupt(f *testing.F) {
	for _, seed := range corruptedCorpus(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // header rejected: fine
		}
		var rec Record
		for i := 0; ; i++ {
			err := r.Read(&rec)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return // corruption surfaced as an error: fine
			}
			if !rec.Br.Kind.Valid() {
				t.Fatalf("record %d decoded with invalid branch kind %d", i, uint8(rec.Br.Kind))
			}
			if rec.N < 1 {
				t.Fatalf("record %d decoded with instruction count %d", i, rec.N)
			}
			if !isa.Aligned(rec.Start) {
				t.Fatalf("record %d decoded with unaligned start %#x", i, uint64(rec.Start))
			}
			if !rec.Br.Kind.IsBranch() && (rec.Br.Taken || rec.Br.PC != 0 || rec.Br.Target != 0) {
				t.Fatalf("record %d: fall-through decoded with branch state %+v", i, rec.Br)
			}
			if i > len(data) {
				t.Fatalf("reader yielded more records than the input can hold")
			}
		}
	})
}

// TestReaderRejectsCorruptedCorpus pins the corpus behaviour in a normal
// test run (the fuzz engine only executes seeds under -fuzz).
func TestReaderRejectsCorruptedCorpus(t *testing.T) {
	corpus := corruptedCorpus(t)
	for i, data := range corpus {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			continue
		}
		var rec Record
		for {
			if err := r.Read(&rec); err != nil {
				break
			}
			if !rec.Br.Kind.Valid() || rec.N < 1 {
				t.Errorf("corpus %d: invalid record decoded: %+v", i, rec)
				break
			}
		}
	}
	// The two corruptions the original decoder silently accepted must now
	// surface as errors, not records.
	badKind := corpus[7]
	r, err := NewReader(bytes.NewReader(badKind))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.Read(&rec); err == nil {
		t.Error("out-of-range branch kind byte decoded without error")
	}
	badFlags := corpus[8]
	r, err = NewReader(bytes.NewReader(badFlags))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Read(&rec); err == nil {
		t.Error("unknown flag bits decoded without error")
	}
	// An unaligned start would give the branch an unaligned PC, which the
	// PC-keyed structures (AirBTB's overflow buffer) cannot represent.
	unaligned := corpus[len(corpus)-1]
	r, err = NewReader(bytes.NewReader(unaligned))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Read(&rec); err == nil {
		t.Error("unaligned record start decoded without error")
	}
}
