// Package wal implements the durable write path of the hosted uncertain
// database: a length-prefixed, CRC32C-checksummed, segment-rotated
// write-ahead log plus the Store that drives it — group-committed fsync
// batching, crash recovery (snapshot load + log replay with torn-tail
// truncation), compare-and-swap versioning, and breaker-style read-only
// degradation on disk faults.
//
// The package is built for hostile conditions: every byte of every file is
// covered by a checksum, replay of arbitrary bytes never panics and always
// yields a clean record prefix plus a typed corruption error, and all file
// I/O goes through an injectable FS so tests can fail any write, fsync, or
// rename deterministically.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing:
//
//	+0  magic byte (recordMagic)
//	+1  uint32 LE payload length
//	+5  uint32 LE CRC32C (Castagnoli) of the payload
//	+9  payload bytes
//
// A record is valid iff the magic matches, the length is within
// MaxRecordBytes, the full payload is present, and the checksum matches.
// Anything else — a short header, a short payload, a flipped bit anywhere —
// invalidates the record and everything after it: the WAL is only ever
// appended to, so bytes after the first invalid record cannot be trusted.
const (
	recordMagic  = 0xC1
	headerSize   = 9
	crcSizeBytes = 4
)

// MaxRecordBytes caps a single record's payload so a corrupted length field
// cannot make replay attempt a multi-gigabyte allocation.
const MaxRecordBytes = 1 << 26 // 64 MiB

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel matched by errors.Is for every replay
// corruption: torn tails, checksum mismatches, bad magic, oversized
// lengths. The concrete error is a *CorruptError carrying the offset.
var ErrCorrupt = errors.New("wal: corrupt record")

// CorruptError reports the first invalid byte region of a WAL stream.
// Offset is the byte offset of the record that failed to decode, i.e. the
// length of the clean prefix before it.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// Is matches ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// AppendRecord appends one framed record to buf and returns the extended
// slice.
func AppendRecord(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, headerSize)...)
	buf = append(buf, payload...)
	frame(buf[start:])
	return buf
}

// frame fills in the header of rec, a record whose payload follows
// headerSize reserved bytes, so a caller that built the payload behind the
// reserved header frames it without a copy.
func frame(rec []byte) {
	payload := rec[headerSize:]
	rec[0] = recordMagic
	binary.LittleEndian.PutUint32(rec[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[5:9], crc32.Checksum(payload, castagnoli))
}

// ReadRecords scans a WAL byte stream, invoking fn with each valid record's
// payload in order. It stops at the first invalid byte and reports the
// clean prefix length (the offset up to which every record decoded and
// checksummed correctly).
//
// The returned error is nil when the stream ends exactly on a record
// boundary, a *CorruptError (errors.Is-matchable against ErrCorrupt) when
// it does not — a torn tail from a crash mid-append and a flipped bit are
// indistinguishable by construction, so both surface the same way and the
// caller decides whether truncating to the clean prefix is sound. An error
// returned by fn aborts the scan and is returned verbatim with the clean
// prefix ending before the record that fn rejected.
//
// ReadRecords never panics on any input, which FuzzWALReplay locks in.
func ReadRecords(r io.Reader, fn func(payload []byte) error) (clean int64, err error) {
	var hdr [headerSize]byte
	for {
		start := clean
		n, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return clean, nil // clean end on a record boundary
		}
		if err != nil {
			return clean, &CorruptError{Offset: start, Reason: fmt.Sprintf("torn header (%d of %d bytes)", n, headerSize)}
		}
		if hdr[0] != recordMagic {
			return clean, &CorruptError{Offset: start, Reason: fmt.Sprintf("bad magic 0x%02x", hdr[0])}
		}
		length := binary.LittleEndian.Uint32(hdr[1:5])
		if length > MaxRecordBytes {
			return clean, &CorruptError{Offset: start, Reason: fmt.Sprintf("payload length %d exceeds %d", length, MaxRecordBytes)}
		}
		payload := make([]byte, length)
		if m, err := io.ReadFull(r, payload); err != nil {
			return clean, &CorruptError{Offset: start, Reason: fmt.Sprintf("torn payload (%d of %d bytes)", m, length)}
		}
		want := binary.LittleEndian.Uint32(hdr[5:9])
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return clean, &CorruptError{Offset: start, Reason: fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want)}
		}
		clean = start + int64(headerSize) + int64(length)
		if fn != nil {
			if err := fn(payload); err != nil {
				return start, err
			}
		}
	}
}
