package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// A log is an append-only sequence of records, the one store object written
// in place. Its layout:
//
//	magic    "mufzlog1\n"
//	record   uint32 payload length | uint32 CRC-32C of the payload | payload
//	...
//	trailer  uint32 0xffffffff | uint64 total payload length | uint32 CRC-32C of the 12 bytes before it
//
// Integers are little-endian, and the CRC is Castagnoli's. Appends are not
// synced; the trailer, written by SealLog with an fsync of the file and its
// directory, publishes the log. No reader accepts a log without it, so a
// log needs no temporary name, and Open's sweep of temporaries never
// touches one that is being written. The CRCs only detect torn or corrupt
// files: what a log holds is named by its address, as with every object.
var logMagic = []byte("mufzlog1\n")

const (
	recordHeaderLen = 8
	trailerLen      = 16
	// trailerMark opens the trailer; no record is that long.
	trailerMark = 0xffffffff
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// LogEnd is where a log's records end: its length in bytes, where the next
// append goes, and the total payload length of its records, which the
// trailer seals. The zero LogEnd is a log not yet created.
type LogEnd struct {
	Size    int64
	Payload int64
}

// AppendLog appends one record per payload to the log at (kind, bucket,
// name), which ends at end, and returns its new end. A zero end creates the
// log, replacing any object at the address. The file is open for this call
// only, and nothing is synced until SealLog. On an error the log's end is
// still end, and bytes past it are overwritten by the next append or cut
// off by the seal.
func (s *Store) AppendLog(kind Kind, bucket, name string, end LogEnd, payloads ...[]byte) (LogEnd, error) {
	create := end == (LogEnd{})
	path, err := s.objectPath(kind, bucket, name, create)
	if err != nil {
		return end, err
	}
	flag := os.O_WRONLY
	if create {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return end, fmt.Errorf("store: %w", err)
	}
	next, err := writeRecords(f, end, payloads)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return end, fmt.Errorf("store: append to log %s: %w", path, err)
	}
	return next, nil
}

// writeRecords writes the magic line at a zero end, then each payload's
// record, and returns the end after them.
func writeRecords(f io.WriterAt, end LogEnd, payloads [][]byte) (LogEnd, error) {
	if end == (LogEnd{}) {
		if _, err := f.WriteAt(logMagic, 0); err != nil {
			return end, err
		}
		end.Size = int64(len(logMagic))
	}
	var hdr [recordHeaderLen]byte
	for _, p := range payloads {
		if uint64(len(p)) >= trailerMark {
			return end, fmt.Errorf("a %d-byte record is too long", len(p))
		}
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p, castagnoli))
		if _, err := f.WriteAt(hdr[:], end.Size); err != nil {
			return end, err
		}
		if _, err := f.WriteAt(p, end.Size+recordHeaderLen); err != nil {
			return end, err
		}
		end.Size += recordHeaderLen + int64(len(p))
		end.Payload += int64(len(p))
	}
	return end, nil
}

// trailer encodes the trailer that seals payload bytes of records.
func trailer(payload int64) [trailerLen]byte {
	var t [trailerLen]byte
	binary.LittleEndian.PutUint32(t[:4], trailerMark)
	binary.LittleEndian.PutUint64(t[4:12], uint64(payload))
	binary.LittleEndian.PutUint32(t[12:], crc32.Checksum(t[:12], castagnoli))
	return t
}

// SealLog writes the trailer of the log at (kind, bucket, name) at end,
// cuts off anything past it, and syncs the file and its directory. From
// then on the log reads back, and survives a crash.
func (s *Store) SealLog(kind Kind, bucket, name string, end LogEnd) error {
	path, err := s.objectPath(kind, bucket, name, false)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	t := trailer(end.Payload)
	_, err = f.WriteAt(t[:], end.Size)
	if err == nil {
		err = f.Truncate(end.Size + trailerLen)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: seal log %s: %w", path, err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// ReadLog writes the payloads of the sealed log at (kind, bucket, name) to
// w, in order, each only after its length and CRC check out. A log that is
// unsealed, truncated or corrupt, a record longer than the log, and bytes
// after the trailer are errors. A bad magic line or trailer fails before
// anything is written; a bad record fails after the records before it.
func (s *Store) ReadLog(kind Kind, bucket, name string, w io.Writer) error {
	path, err := s.objectPath(kind, bucket, name, false)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = readLog(f, fi.Size(), func(p []byte) error {
		_, err := w.Write(p)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: log %s: %w", path, err)
	}
	return nil
}

// readLog checks the magic line and the trailer of a size-byte log, then
// walks its records and hands each payload to yield once its CRC checks
// out. The slice yield gets is reused for the next record.
func readLog(r io.ReaderAt, size int64, yield func([]byte) error) error {
	end := size - trailerLen
	if end < int64(len(logMagic)) {
		return fmt.Errorf("%d bytes are too short for a log", size)
	}
	head := make([]byte, len(logMagic))
	if err := readAt(r, head, 0); err != nil {
		return err
	}
	if !bytes.Equal(head, logMagic) {
		return errors.New("not a log")
	}
	var t [trailerLen]byte
	if err := readAt(r, t[:], end); err != nil {
		return err
	}
	sealed := binary.LittleEndian.Uint64(t[4:12])
	if t != trailer(int64(sealed)) {
		return errors.New("no trailer at its end: unsealed, truncated, corrupt, or followed by other bytes")
	}
	var hdr [recordHeaderLen]byte
	var buf []byte
	var total uint64
	for off := int64(len(logMagic)); off < end; {
		if end-off < recordHeaderLen {
			return fmt.Errorf("record header at %d runs into the trailer", off)
		}
		if err := readAt(r, hdr[:], off); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		off += recordHeaderLen
		if n > end-off {
			return fmt.Errorf("record at %d claims %d bytes, more than the log holds", off-recordHeaderLen, n)
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if err := readAt(r, buf, off); err != nil {
			return err
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			return fmt.Errorf("record at %d fails its CRC", off-recordHeaderLen)
		}
		if err := yield(buf); err != nil {
			return err
		}
		off += n
		total += uint64(n)
	}
	if total != sealed {
		return fmt.Errorf("trailer seals %d payload bytes, the records hold %d", sealed, total)
	}
	return nil
}

// readAt fills p from offset off; a short read is io.ErrUnexpectedEOF.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}
