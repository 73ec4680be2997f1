// Package store persists reservoir-serve runs so a service restart (or
// crash) loses no accepted work: each run has an append-only write-ahead
// log of CRC-framed round records plus periodic full sampler snapshots
// written with atomic renames, and the store keeps a small manifest with
// the run-ID counter. The serving layer writes records from each run's
// ingest worker goroutine (the sole sampler owner), so persistence rides
// the async pipeline without any cross-run lock. A cluster node persists
// only its round boundaries, into a fixed ring of slot files (Slots). See
// DESIGN.md §6 for the on-disk format and the crash-consistency argument.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"reservoir/internal/workload"
)

// On-disk framing constants. Everything is little endian.
const (
	// recordMagic starts every WAL record frame.
	recordMagic = uint32(0x5256574C) // "LWVR"
	// snapMagic starts every snapshot file.
	snapMagic = uint32(0x52565350) // "PSVR"
	// formatVersion tags both frames; decoding rejects other versions.
	formatVersion = byte(1)

	// recRound is the only record type so far: one ingest round.
	recRound = byte(1)

	// Payload kinds inside a round record.
	payloadExplicit  = byte(1)
	payloadSynthetic = byte(2)

	// MaxRecordLen caps a record payload; longer length fields are treated
	// as corruption. It comfortably exceeds the service's request body
	// limit, so no valid round is ever rejected.
	MaxRecordLen = 1 << 29

	// recordOverhead is the framing around a payload: magic, version,
	// type, length, CRC.
	recordOverhead = 4 + 1 + 1 + 4 + 4
)

// Item is one weighted stream element as persisted in explicit-round
// records — an alias of the sampler item, so the serving layer can hand
// its pooled batch slices to EncodeRecord without a per-item copy
// (encoding serializes synchronously; records never retain the slices).
type Item = workload.Item

// RoundRecord is one WAL entry: the complete input of one ingest round.
// Round is the run's round counter *before* the round applies (applying
// the record advances the run to Round+1). Exactly one of Batches
// (explicit per-PE mini-batches) or Synthetic (the JSON synthetic spec the
// round was generated from) is set; synthetic sources derive their batches
// deterministically from (seed, pe, round), so storing the spec replays
// the identical data.
type RoundRecord struct {
	Round     uint64
	Batches   [][]Item
	Synthetic []byte
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// encodePayload serializes the record body (everything the CRC covers
// beyond the frame header).
func (r *RoundRecord) encodePayload() []byte {
	if r.Synthetic != nil {
		b := make([]byte, 0, 8+1+4+len(r.Synthetic))
		b = appendU64(b, r.Round)
		b = append(b, payloadSynthetic)
		b = appendU32(b, uint32(len(r.Synthetic)))
		return append(b, r.Synthetic...)
	}
	n := 0
	for _, batch := range r.Batches {
		n += 4 + 16*len(batch)
	}
	b := make([]byte, 0, 8+1+4+n)
	b = appendU64(b, r.Round)
	b = append(b, payloadExplicit)
	b = appendU32(b, uint32(len(r.Batches)))
	for _, batch := range r.Batches {
		b = appendU32(b, uint32(len(batch)))
		for _, it := range batch {
			b = appendU64(b, math.Float64bits(it.W))
			b = appendU64(b, it.ID)
		}
	}
	return b
}

// EncodeRecord frames one round record: magic, version, type, payload
// length, payload, CRC32 (IEEE, over version+type+length+payload).
func EncodeRecord(r *RoundRecord) []byte {
	payload := r.encodePayload()
	b := make([]byte, 0, recordOverhead+len(payload))
	b = appendU32(b, recordMagic)
	b = append(b, formatVersion, recRound)
	b = appendU32(b, uint32(len(payload)))
	b = append(b, payload...)
	crc := crc32.ChecksumIEEE(b[4:])
	return appendU32(b, crc)
}

// decodeRound parses a round-record payload. Every length field is checked
// against the actual remaining bytes before any allocation, so
// length-lying inputs fail fast instead of over-allocating.
func decodeRound(p []byte) (*RoundRecord, error) {
	if len(p) < 8+1+4 {
		return nil, fmt.Errorf("store: short round record (%d bytes)", len(p))
	}
	rec := &RoundRecord{Round: binary.LittleEndian.Uint64(p)}
	kind := p[8]
	p = p[9:]
	switch kind {
	case payloadSynthetic:
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint64(n) != uint64(len(p)) {
			return nil, fmt.Errorf("store: synthetic spec length %d, have %d bytes", n, len(p))
		}
		if n == 0 {
			// A nil Synthetic would flip the record's kind to explicit on
			// re-encode/replay; no valid writer emits an empty spec.
			return nil, fmt.Errorf("store: empty synthetic spec")
		}
		rec.Synthetic = append([]byte(nil), p...)
		return rec, nil
	case payloadExplicit:
		nb := binary.LittleEndian.Uint32(p)
		p = p[4:]
		// Each batch needs at least its 4-byte length prefix.
		if uint64(nb)*4 > uint64(len(p)) {
			return nil, fmt.Errorf("store: record claims %d batches, have %d bytes", nb, len(p))
		}
		rec.Batches = make([][]Item, nb)
		for i := range rec.Batches {
			if len(p) < 4 {
				return nil, fmt.Errorf("store: truncated batch header")
			}
			n := binary.LittleEndian.Uint32(p)
			p = p[4:]
			if uint64(n)*16 > uint64(len(p)) {
				return nil, fmt.Errorf("store: batch claims %d items, have %d bytes", n, len(p))
			}
			items := make([]Item, n)
			for j := range items {
				items[j] = Item{
					W:  math.Float64frombits(binary.LittleEndian.Uint64(p)),
					ID: binary.LittleEndian.Uint64(p[8:]),
				}
				p = p[16:]
			}
			rec.Batches[i] = items
		}
		if len(p) != 0 {
			return nil, fmt.Errorf("store: %d trailing bytes in round record", len(p))
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("store: unknown round payload kind %d", kind)
	}
}

// DecodeRecords parses every complete, checksummed record from one WAL
// segment held in memory. Scanning stops at the first torn or corrupt
// frame — the expected state after a crash mid-append — and the valid
// prefix is returned along with the number of bytes it covers. A nil
// error with consumed < len(b) means a torn tail was (safely) discarded.
// It is a thin wrapper over scanFrames, the same scanner recovery uses,
// so the fuzz target exercises the production framing rules.
func DecodeRecords(b []byte) (recs []*RoundRecord, consumed int, err error) {
	n, err := scanFrames(bytes.NewReader(b), func(rec *RoundRecord) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, int(n), err
}

// replaySegment streams one WAL segment's records to fn without ever
// materializing more than one record: recovery memory stays O(largest
// record) even for runs whose WAL holds their entire ingest history
// (windowed runs and gather clusters never checkpoint).
func replaySegment(path string, fn func(*RoundRecord) error) (consumed int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return scanFrames(f, fn)
}

// scanFrames is THE record scanner: it walks CRC-framed records from r,
// delivering them to fn one at a time, and returns the byte offset of the
// valid prefix it delivered. A torn tail (truncated final frame) ends the
// scan silently (nil error); any other corruption returns an error after
// the valid prefix has been delivered. An error from fn aborts the scan
// and is returned as-is. Every consumer of the format — recovery replay,
// tail truncation, and DecodeRecords (which the fuzz target hammers) —
// goes through this one implementation.
func scanFrames(r io.Reader, fn func(*RoundRecord) error) (consumed int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [10]byte // magic, version, type, payload length
	var body []byte
	chunk := make([]byte, 64<<10)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return consumed, nil // clean end or torn header
			}
			return consumed, err
		}
		if binary.LittleEndian.Uint32(hdr[:]) != recordMagic {
			return consumed, fmt.Errorf("store: bad record magic")
		}
		if hdr[4] != formatVersion {
			return consumed, fmt.Errorf("store: unsupported record version %d", hdr[4])
		}
		plen := binary.LittleEndian.Uint32(hdr[6:])
		if plen > MaxRecordLen {
			return consumed, fmt.Errorf("store: record length %d exceeds limit", plen)
		}
		// Read the payload in bounded chunks: allocation tracks the bytes
		// actually present, so a length-lying header on a short (torn or
		// corrupt) file cannot force a huge up-front allocation — the same
		// no-over-allocation rule every other decoder here follows.
		need := int(plen) + 4 // payload + CRC
		body = body[:0]
		torn := false
		for rem := need; rem > 0; {
			n := min(rem, len(chunk))
			if _, err := io.ReadFull(br, chunk[:n]); err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					torn = true
					break
				}
				return consumed, err
			}
			body = append(body, chunk[:n]...)
			rem -= n
		}
		if torn {
			return consumed, nil // torn payload
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[4:])
		crc.Write(body[:plen])
		if crc.Sum32() != binary.LittleEndian.Uint32(body[plen:]) {
			return consumed, fmt.Errorf("store: record CRC mismatch")
		}
		if hdr[5] != recRound {
			return consumed, fmt.Errorf("store: unknown record type %d", hdr[5])
		}
		rec, derr := decodeRound(body[:plen])
		if derr != nil {
			return consumed, derr
		}
		if err := fn(rec); err != nil {
			return consumed, err
		}
		consumed += int64(len(hdr)) + int64(need)
	}
}

// Snapshot is one full sampler checkpoint: the run's round counter at the
// moment of the snapshot, an opaque sampler-kind tag (interpreted by the
// serving layer), and the serialized sampler state.
type Snapshot struct {
	Round uint64
	Kind  byte
	Blob  []byte
}

// EncodeSnapshot frames a snapshot file: magic, version, kind, round,
// blob length, blob, CRC32 (over everything after the magic).
func EncodeSnapshot(s *Snapshot) []byte {
	b := make([]byte, 0, 4+1+1+8+4+len(s.Blob)+4)
	b = appendU32(b, snapMagic)
	b = append(b, formatVersion, s.Kind)
	b = appendU64(b, s.Round)
	b = appendU32(b, uint32(len(s.Blob)))
	b = append(b, s.Blob...)
	return appendU32(b, crc32.ChecksumIEEE(b[4:]))
}

// snapHeaderLen is the snapshot frame ahead of the blob: magic, version,
// kind, round, blob length.
const snapHeaderLen = 4 + 1 + 1 + 8 + 4

// DecodeSnapshot parses and verifies a snapshot file.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	const hdr = snapHeaderLen
	if len(b) < hdr+4 {
		return nil, fmt.Errorf("store: short snapshot file (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != snapMagic {
		return nil, fmt.Errorf("store: bad snapshot magic")
	}
	if b[4] != formatVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", b[4])
	}
	s := &Snapshot{Kind: b[5], Round: binary.LittleEndian.Uint64(b[6:])}
	blobLen := binary.LittleEndian.Uint32(b[14:])
	if uint64(blobLen) != uint64(len(b)-hdr-4) {
		return nil, fmt.Errorf("store: snapshot blob length %d, have %d bytes", blobLen, len(b)-hdr-4)
	}
	want := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[4:len(b)-4]) != want {
		return nil, fmt.Errorf("store: snapshot CRC mismatch")
	}
	s.Blob = append([]byte(nil), b[hdr:len(b)-4]...)
	return s, nil
}

// decodeSnapshotPrefix decodes the snapshot frame at the start of b and
// ignores the bytes after it: a boundary slot overwritten by a shorter
// frame keeps the tail of the longer one it replaced.
func decodeSnapshotPrefix(b []byte) (*Snapshot, error) {
	if len(b) >= snapHeaderLen {
		if end := snapHeaderLen + uint64(binary.LittleEndian.Uint32(b[14:])) + 4; end < uint64(len(b)) {
			b = b[:end]
		}
	}
	return DecodeSnapshot(b)
}
