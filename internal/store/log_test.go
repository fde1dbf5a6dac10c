package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// testRecords are the payloads of the logs these tests write: a header, an
// empty record, and two chunks.
var testRecords = [][]byte{
	[]byte("mufuzz-transcript v1\ncontract C\n"),
	nil,
	[]byte("rec 0 nested=0 dist=0 covered=1\nend\n"),
	[]byte("rec 1 nested=0 dist=1 covered=2\nedge 12 1\nend\neof\n"),
}

// writeLog writes records as one sealed log at (KindTranscript, "b", name),
// two appends and a seal, and returns the log's bytes.
func writeLog(t *testing.T, s *Store, name string, records [][]byte) []byte {
	t.Helper()
	end, err := s.AppendLog(KindTranscript, "b", name, LogEnd{}, records[:1]...)
	if err != nil {
		t.Fatal(err)
	}
	if end, err = s.AppendLog(KindTranscript, "b", name, end, records[1:]...); err != nil {
		t.Fatal(err)
	}
	if err := s.SealLog(KindTranscript, "b", name, end); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.root, string(KindTranscript), "b", name))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != end.Size+trailerLen {
		t.Fatalf("sealed log is %d bytes, its end says %d plus the trailer", len(data), end.Size)
	}
	return data
}

// readLogT reads a log through ReadLog: its payload bytes, or the error
// with the bytes written before it.
func readLogT(s *Store, name string) ([]byte, error) {
	var buf bytes.Buffer
	err := s.ReadLog(KindTranscript, "b", name, &buf)
	return buf.Bytes(), err
}

// TestLogRoundTrip writes a log in two appends and reads it back, checks
// that Get refuses it, and continues a log at its recorded end over the
// bytes of a torn append: the seal cuts them off.
func TestLogRoundTrip(t *testing.T) {
	s := openT(t)
	writeLog(t, s, "l", testRecords)
	want := bytes.Join(testRecords, nil)
	if got, err := readLogT(s, "l"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("log reads back %q, %v; want %q", got, err, want)
	}
	if got, err := s.Get(KindTranscript, "b", "l"); err == nil {
		t.Fatalf("Get returns a log's bytes: %q", got)
	}

	end, err := s.AppendLog(KindTranscript, "b", "torn", LogEnd{}, testRecords[0])
	if err != nil {
		t.Fatal(err)
	}
	// An append that a crash tore: its bytes are past the recorded end.
	if _, err := s.AppendLog(KindTranscript, "b", "torn", end, bytes.Repeat([]byte("x"), 500)); err != nil {
		t.Fatal(err)
	}
	if end, err = s.AppendLog(KindTranscript, "b", "torn", end, testRecords[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.SealLog(KindTranscript, "b", "torn", end); err != nil {
		t.Fatal(err)
	}
	want = append(append([]byte(nil), testRecords[0]...), testRecords[2]...)
	if got, err := readLogT(s, "torn"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("log continued at its recorded end reads %q, %v; want %q", got, err, want)
	}
}

// TestLogDamageReadsAsError damages a sealed log every way a byte can be
// damaged: cut at every offset, every single bit flipped, and bytes after
// the trailer. Each reads as an error. What ReadLog wrote before the error
// is whole records of the log, never a byte of a damaged one. Whole records
// cut out or repeated read as an error too.
func TestLogDamageReadsAsError(t *testing.T) {
	s := openT(t)
	good := writeLog(t, s, "l", testRecords)
	path := filepath.Join(s.root, string(KindTranscript), "b", "l")
	var prefixes [][]byte // the whole-record prefixes of the payload
	for i := 0; i <= len(testRecords); i++ {
		prefixes = append(prefixes, bytes.Join(testRecords[:i], nil))
	}
	check := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readLogT(s, "l")
		if err == nil {
			t.Fatalf("%s reads as %q", what, got)
		}
		for _, p := range prefixes {
			if bytes.Equal(got, p) {
				return
			}
		}
		t.Fatalf("%s wrote %q before its error, not a run of whole records", what, got)
	}
	for n := 0; n < len(good); n++ {
		check("a log cut to "+strconv.Itoa(n)+" bytes", good[:n])
	}
	for bit := 0; bit < 8*len(good); bit++ {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8)
		check("a log with bit "+strconv.Itoa(bit)+" flipped", bad)
	}
	check("a log with a byte after its trailer", append(append([]byte(nil), good...), 0))
	check("a log followed by another", append(append([]byte(nil), good...), good...))

	// Whole records cut out or repeated: each record checks out, and only
	// the trailer's total tells.
	off := []int{len(logMagic)}
	for _, r := range testRecords {
		off = append(off, off[len(off)-1]+recordHeaderLen+len(r))
	}
	spliced := map[string][]byte{
		"a log without its third record":    append(append([]byte(nil), good[:off[2]]...), good[off[3]:]...),
		"a log with its third record twice": append(append([]byte(nil), good[:off[3]]...), good[off[2]:]...),
	}
	for what, data := range spliced {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := readLogT(s, "l"); err == nil {
			t.Errorf("%s reads as %q", what, got)
		}
	}
}

// TestLogSurvivesReopen opens the store a second time while a log is being
// written: Open sweeps temporaries, and a log is not one.
func TestLogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	end, err := s.AppendLog(KindTranscript, "b", "l", LogEnd{}, testRecords[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if end, err = s.AppendLog(KindTranscript, "b", "l", end, testRecords[2:]...); err != nil {
		t.Fatal(err)
	}
	if err := s.SealLog(KindTranscript, "b", "l", end); err != nil {
		t.Fatal(err)
	}
	if got, err := readLogT(s, "l"); err != nil || !bytes.Equal(got, bytes.Join(testRecords, nil)) {
		t.Fatalf("log written across a second Open reads %q, %v", got, err)
	}
}

// TestReadsCreateNoDirectories pins that only writes create a bucket's
// directory: reading, listing and deleting an absent object leave none.
func TestReadsCreateNoDirectories(t *testing.T) {
	s := openT(t)
	if _, err := s.Get(KindSeed, "absent", "x"); err == nil {
		t.Fatal("Get of an absent object succeeds")
	}
	if s.Has(KindSnapshot, "absent", "x") {
		t.Fatal("Has reports an absent object")
	}
	if err := s.Delete(KindMeta, "absent", "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadLog(KindTranscript, "absent", "x", &bytes.Buffer{}); err == nil {
		t.Fatal("ReadLog of an absent log succeeds")
	}
	if entries, err := s.List(KindPoC, "absent"); err != nil || len(entries) != 0 {
		t.Fatalf("List of an absent bucket: %v, %v", entries, err)
	}
	for _, k := range allKinds {
		if _, err := os.Stat(filepath.Join(s.root, string(k), "absent")); !os.IsNotExist(err) {
			t.Errorf("a read left the directory %s/absent behind (%v)", k, err)
		}
	}
	if err := s.Put(KindMeta, "present", "x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.root, string(KindMeta), "present")); err != nil {
		t.Fatalf("Put made no bucket directory: %v", err)
	}
}

// FuzzReadLog feeds arbitrary bytes to the log reader. Every input either
// fails, or reads to records that, written as a new log, read back the
// same; and since a log has one encoding, the new log is the input.
func FuzzReadLog(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(logMagic)
	for _, records := range [][][]byte{nil, testRecords, testRecords[2:]} {
		var buf writerAt
		end, err := writeRecords(&buf, LogEnd{}, records)
		if err != nil {
			f.Fatal(err)
		}
		tr := trailer(end.Payload)
		f.Add(append(buf.b, tr[:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var records [][]byte
		err := readLog(bytes.NewReader(data), int64(len(data)), func(p []byte) error {
			records = append(records, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			return
		}
		end, err := s.AppendLog(KindTranscript, "fuzz", "log", LogEnd{}, records...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SealLog(KindTranscript, "fuzz", "log", end); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := s.ReadLog(KindTranscript, "fuzz", "log", &again); err != nil {
			t.Fatalf("a log written from %d records does not read back: %v", len(records), err)
		}
		if !bytes.Equal(again.Bytes(), bytes.Join(records, nil)) {
			t.Fatalf("a log written from %d records reads back other bytes", len(records))
		}
		written, err := os.ReadFile(filepath.Join(s.root, string(KindTranscript), "fuzz", "log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, data) {
			t.Fatalf("the log read back is not written the same:\n%q\n%q", data, written)
		}
	})
}

// writerAt is an in-memory io.WriterAt.
type writerAt struct{ b []byte }

func (w *writerAt) WriteAt(p []byte, off int64) (int, error) {
	if n := int(off) + len(p); n > len(w.b) {
		w.b = append(w.b, make([]byte, n-len(w.b))...)
	}
	return copy(w.b[off:], p), nil
}
