package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/p2pkeyword/keysearch/internal/transport/wire"
)

// Op is the kind of one logged index mutation.
type Op uint8

const (
	// OpInsert adds one ⟨instance, vertex, set key, object ID⟩ entry.
	OpInsert Op = iota + 1
	// OpDelete removes one entry.
	OpDelete
	// OpHandoff drops every entry whose vertex key left the node's DHT
	// range when a predecessor joined: entries NOT in (NewID, OwnerID].
	// The surviving set is a deterministic function of the table state,
	// so replaying the record reproduces the extraction exactly.
	OpHandoff
	// OpClear wipes every entry. The graceful drain of earlier releases
	// logged it; nothing writes it now, but their logs still replay.
	OpClear
	// OpMigrate checkpoints an inbound range migration: the range bounds
	// (NewID, OwnerID], the source address the chunks are pulled from,
	// and the cursor of the last chunk durably applied. A record with
	// Done set retires the migration; replay of an un-done record leaves
	// a resumable cursor for the migration manager to pick up after a
	// crash (see DESIGN §11).
	OpMigrate
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpHandoff:
		return "handoff"
	case OpClear:
		return "clear"
	case OpMigrate:
		return "migrate"
	default:
		return "unknown"
	}
}

// Record is one durable index mutation. Insert and Delete carry an
// entry's coordinates (Entry); Handoff carries the DHT range bounds;
// Clear carries nothing. Records are idempotent: re-applying any suffix
// of the log in order converges to the same table state, which is what
// makes snapshot + full-WAL replay safe across every crash window of
// the compaction protocol (see DESIGN §9).
type Record struct {
	Op       Op
	Instance string
	Vertex   uint64
	SetKey   string
	ObjectID string
	NewID    uint64 // OpHandoff, OpMigrate: range bound
	OwnerID  uint64 // OpHandoff, OpMigrate: range bound

	// OpMigrate only. Source is the peer address chunks are pulled
	// from. HasCursor marks a checkpoint mid-range (the cursor is the
	// Instance/Vertex/SetKey/ObjectID coordinates of the last entry
	// applied); Done retires the migration.
	Source    string
	HasCursor bool
	Done      bool
}

// Entry returns the entry coordinates rec carries.
func (rec Record) Entry() Entry {
	return Entry{Instance: rec.Instance, Vertex: rec.Vertex, SetKey: rec.SetKey, ObjectID: rec.ObjectID}
}

// WithEntry returns rec carrying e's coordinates.
func (rec Record) WithEntry(e Entry) Record {
	rec.Instance, rec.Vertex, rec.SetKey, rec.ObjectID = e.Instance, e.Vertex, e.SetKey, e.ObjectID
	return rec
}

// Frame layout: u32 little-endian payload length, u32 IEEE CRC of the
// payload, then the payload. The CRC lets recovery distinguish a torn
// tail (partial final write at a crash) from a corrupt middle.
const frameHeaderLen = 8

// maxPayloadLen rejects absurd length prefixes so a corrupt header
// cannot drive a multi-gigabyte allocation during recovery.
const maxPayloadLen = 1 << 20

// OpMigrate payload flag bits.
const (
	migFlagCursor = 1 << 0
	migFlagDone   = 1 << 1
)

// errTruncatedFrame reports a frame that does not fully fit in the
// remaining file: the torn tail a crash mid-append leaves behind.
var errTruncatedFrame = errors.New("store: truncated record frame")

// errCorruptFrame reports a full-length frame whose CRC does not match,
// or whose payload is not exactly what appendRecord writes.
var errCorruptFrame = errors.New("store: corrupt record frame")

// appendRecord encodes rec as one CRC-framed payload appended to buf.
// An entry's coordinates are written by Entry's codec.
func appendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	w := wire.Writer{Buf: append(buf, 0, 0, 0, 0, 0, 0, 0, 0)} // frame header placeholder
	w.Byte(byte(rec.Op))
	switch rec.Op {
	case OpInsert, OpDelete:
		rec.Entry().MarshalWire(&w)
	case OpHandoff:
		w.Uvarint(rec.NewID)
		w.Uvarint(rec.OwnerID)
	case OpClear:
		// no payload beyond the op byte
	case OpMigrate:
		var flags byte
		if rec.HasCursor {
			flags |= migFlagCursor
		}
		if rec.Done {
			flags |= migFlagDone
		}
		w.Byte(flags)
		w.Uvarint(rec.NewID)
		w.Uvarint(rec.OwnerID)
		w.String(rec.Source)
		if rec.HasCursor {
			rec.Entry().MarshalWire(&w)
		}
	}
	buf = w.Buf
	payload := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeRecord parses one framed record from data, returning the
// record and the number of bytes consumed. errTruncatedFrame means the
// tail of data is an incomplete frame; errCorruptFrame means a
// complete frame failed its CRC or does not parse.
func decodeRecord(data []byte) (Record, int, error) {
	if len(data) < frameHeaderLen {
		return Record{}, 0, errTruncatedFrame
	}
	plen := binary.LittleEndian.Uint32(data)
	if plen == 0 || plen > maxPayloadLen {
		return Record{}, 0, errCorruptFrame
	}
	if len(data) < frameHeaderLen+int(plen) {
		return Record{}, 0, errTruncatedFrame
	}
	payload := data[frameHeaderLen : frameHeaderLen+int(plen)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return Record{}, 0, errCorruptFrame
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeaderLen + int(plen), nil
}

// decodePayload reads what appendRecord wrote and nothing else: an
// unknown op or OpMigrate flag bit, a non-canonical varint, a short
// field or a trailing byte is errCorruptFrame. The payload is its
// Reader's arena, so a record's strings cost one copy of the payload,
// not of the file it sits in.
func decodePayload(p []byte) (Record, error) {
	var r wire.Reader
	r.Reset(p)
	rec := Record{Op: Op(r.Byte())}
	var e Entry
	switch rec.Op {
	case OpInsert, OpDelete:
		e.UnmarshalWire(&r)
	case OpHandoff:
		rec.NewID = r.Uvarint()
		rec.OwnerID = r.Uvarint()
	case OpClear:
	case OpMigrate:
		flags := r.Byte()
		if flags&^(migFlagCursor|migFlagDone) != 0 {
			return Record{}, errCorruptFrame
		}
		rec.HasCursor = flags&migFlagCursor != 0
		rec.Done = flags&migFlagDone != 0
		rec.NewID = r.Uvarint()
		rec.OwnerID = r.Uvarint()
		rec.Source = r.String()
		if rec.HasCursor {
			e.UnmarshalWire(&r)
		}
	default:
		return Record{}, errCorruptFrame
	}
	if r.Finish() != nil {
		return Record{}, errCorruptFrame
	}
	return rec.WithEntry(e), nil
}

// readAll reads framed records from data, invoking apply for each, and
// returns how many were applied. A torn tail — the artifact of a crash
// mid-append — stops the scan with err == nil and validLen < len(data),
// so the caller keeps the prefix and truncates the rest. An
// undecodable frame that is NOT the file's final frame cannot be a
// torn write: valid frames follow it, so the bytes were once whole and
// have since rotted. That is surfaced as an error (wrapping
// errCorruptFrame) instead of silently dropping every record after it.
func readAll(data []byte, apply func(Record) error) (count int, validLen int, err error) {
	off := 0
	for off < len(data) {
		rec, n, derr := decodeRecord(data[off:])
		if derr != nil {
			if isTornTail(data, off) {
				return count, off, nil // keep the prefix, truncate the tail
			}
			// Intact frames follow the failure, so whatever derr says
			// (CRC mismatch, garbled length, bad op) this is corruption.
			return count, off, fmt.Errorf("%w at offset %d of %d", errCorruptFrame, off, len(data))
		}
		if aerr := apply(rec); aerr != nil {
			return count, off, aerr
		}
		off += n
		count++
	}
	return count, off, nil
}

// isTornTail reports whether the undecodable frame at off is a
// plausible torn tail rather than mid-file corruption. A crash
// mid-append tears only the physical end of the log, so the
// discriminator is whether anything intact follows the bad bytes: if
// a CRC-verified frame decodes at any later offset, the region was
// necessarily whole once and has since rotted — that is corruption
// and the caller must not silently drop the records after it. If
// nothing decodes after off, the bad bytes are the tail (whatever a
// partial write left of the final frame — short payload, garbled
// length field, torn CRC) and the prefix is the recovered state. The
// odds of garbage passing the CRC check are ~2⁻³², so a false
// corruption verdict is negligible, and a false torn-tail verdict
// would at worst drop bytes that no longer frame any record.
func isTornTail(data []byte, off int) bool {
	for cand := off + 1; cand+frameHeaderLen <= len(data); cand++ {
		if _, _, err := decodeRecord(data[cand:]); err == nil {
			return false
		}
	}
	return true
}

// writeFrames encodes records through emit into w (snapshot writing).
type frameWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (fw *frameWriter) emit(rec Record) error {
	if fw.err != nil {
		return fw.err
	}
	fw.buf = appendRecord(fw.buf[:0], rec)
	_, fw.err = fw.w.Write(fw.buf)
	return fw.err
}
