package rng

import (
	"encoding/binary"
	"fmt"
)

// AppendBinary implements encoding.BinaryAppender: the 4-word xoshiro
// state, little endian.
func (x *Xoshiro256) AppendBinary(b []byte) ([]byte, error) {
	for _, s := range x.s {
		b = binary.LittleEndian.AppendUint64(b, s)
	}
	return b, nil
}

// MarshalBinary implements encoding.BinaryMarshaler (see AppendBinary).
func (x *Xoshiro256) MarshalBinary() ([]byte, error) { return x.AppendBinary(make([]byte, 0, 32)) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (x *Xoshiro256) UnmarshalBinary(data []byte) error {
	if len(data) != 32 {
		return fmt.Errorf("rng: xoshiro256 state must be 32 bytes, got %d", len(data))
	}
	for i := range x.s {
		x.s[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		return fmt.Errorf("rng: all-zero xoshiro256 state")
	}
	return nil
}
