// Package store persists reservoir-serve runs and cluster nodes so a
// restart (or crash) loses no acknowledged round: every run directory
// holds its config.json plus a fixed ring of boundary slot files (Slots),
// and each completed round overwrites one slot with the sampler's whole
// state at that round boundary. Recovery restores the newest valid slot;
// nothing is ever replayed. The store also keeps a small manifest with
// the service's run-ID counter. See DESIGN.md §6 for the on-disk format
// and the crash-consistency argument.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Snapshot framing constants. Everything is little endian.
const (
	// snapMagic starts every snapshot frame.
	snapMagic = uint32(0x52565350) // "PSVR"
	// formatVersion tags the frame; decoding rejects other versions.
	formatVersion = byte(1)
)

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// Snapshot is one round boundary: the run's round counter at the
// boundary, an opaque sampler-kind tag (interpreted by the serving
// layer), and the serialized sampler state.
type Snapshot struct {
	Round uint64
	Kind  byte
	Blob  []byte
}

// EncodeSnapshot frames a snapshot: magic, version, kind, round,
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

// DecodeSnapshot parses and verifies one snapshot frame.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	const hdr = snapHeaderLen
	if len(b) < hdr+4 {
		return nil, fmt.Errorf("store: short snapshot (%d bytes)", len(b))
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
