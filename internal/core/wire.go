package core

import (
	"reservoir/internal/btree"
	"reservoir/internal/coll"
	"reservoir/internal/transport"
	"reservoir/internal/workload"
)

// Wire codecs for the sampler hot path: every payload the distributed
// samplers send per round — selection pivots and counts, gather chunks
// of items/keys/candidates, threshold broadcasts — gets a hand-rolled
// binary encoding, the only encoding wire transports use. IDs are
// assigned centrally in internal/transport/wire.go; the formats are
// specified in DESIGN.md §2.4. Registration happens at init so any
// binary linking the samplers (reservoir-serve nodes, benches, tests)
// agrees on the mapping.

// Fixed-width element codecs. Keys and items are two 8-byte words each
// (float bits + id), keyed candidates are the pair — all bit-exact, so
// tcpnet rounds stay byte-identical to simnet ones.

func appendKey(buf []byte, k btree.Key) []byte {
	buf = transport.AppendF64(buf, k.V)
	return transport.AppendU64(buf, k.ID)
}

func decKey(d *transport.Dec) btree.Key {
	return btree.Key{V: d.F64(), ID: d.U64()}
}

func appendItem(buf []byte, it workload.Item) []byte {
	buf = transport.AppendF64(buf, it.W)
	return transport.AppendU64(buf, it.ID)
}

func decItem(d *transport.Dec) workload.Item {
	return workload.Item{W: d.F64(), ID: d.U64()}
}

func appendKeyedItem(buf []byte, ki keyedItem) []byte {
	buf = appendKey(buf, ki.Key)
	return appendItem(buf, ki.Item)
}

func decKeyedItem(d *transport.Dec) keyedItem {
	return keyedItem{Key: decKey(d), Item: decItem(d)}
}

// appendSlice/decSlice encode a vector of fixed-width elements as a
// uvarint count plus elements. elemMin is the minimum encoded element
// size, which lets the decoder reject a length-lying header before
// allocating (transport.Dec.Len).
func appendSlice[T any](buf []byte, v []T, el func([]byte, T) []byte) []byte {
	buf = transport.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = el(buf, x)
	}
	return buf
}

func decSlice[T any](d *transport.Dec, elemMin int, el func(*transport.Dec) T) ([]T, error) {
	n := d.Len(elemMin)
	if err := d.Err(); err != nil {
		return nil, err
	}
	v := make([]T, n)
	for i := range v {
		v[i] = el(d)
	}
	return v, d.Err()
}

// appendChunks/decChunks encode a gather tree's []coll.Chunk[T]: a
// uvarint chunk count, then per chunk the source rank, element count,
// and elements.
func appendChunks[T any](buf []byte, chunks []coll.Chunk[T], el func([]byte, T) []byte) []byte {
	buf = transport.AppendUvarint(buf, uint64(len(chunks)))
	for _, ch := range chunks {
		buf = transport.AppendUvarint(buf, uint64(ch.Src))
		buf = appendSlice(buf, ch.Items, el)
	}
	return buf
}

func decChunks[T any](d *transport.Dec, elemMin int, el func(*transport.Dec) T) ([]coll.Chunk[T], error) {
	n := d.Len(2) // a chunk is at least src + count
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := make([]coll.Chunk[T], 0, n)
	for i := 0; i < n; i++ {
		src := int(d.Uvarint())
		items, err := decSlice(d, elemMin, el)
		if err != nil {
			return nil, err
		}
		out = append(out, coll.Chunk[T]{Src: src, Items: items})
	}
	return out, d.Err()
}

func init() {
	transport.RegisterMarshaler(transport.WireIDKey, appendKey,
		func(d *transport.Dec) (btree.Key, error) { return decKey(d), d.Err() })

	transport.RegisterMarshaler(transport.WireIDKeySlice,
		func(buf []byte, v []btree.Key) []byte { return appendSlice(buf, v, appendKey) },
		func(d *transport.Dec) ([]btree.Key, error) { return decSlice(d, 16, decKey) })

	transport.RegisterMarshaler(transport.WireIDItemSlice,
		func(buf []byte, v []workload.Item) []byte { return appendSlice(buf, v, appendItem) },
		func(d *transport.Dec) ([]workload.Item, error) { return decSlice(d, 16, decItem) })

	transport.RegisterMarshaler(transport.WireIDItemChunks,
		func(buf []byte, v []coll.Chunk[workload.Item]) []byte { return appendChunks(buf, v, appendItem) },
		func(d *transport.Dec) ([]coll.Chunk[workload.Item], error) { return decChunks(d, 16, decItem) })

	transport.RegisterMarshaler(transport.WireIDKeyChunks,
		func(buf []byte, v []coll.Chunk[btree.Key]) []byte { return appendChunks(buf, v, appendKey) },
		func(d *transport.Dec) ([]coll.Chunk[btree.Key], error) { return decChunks(d, 16, decKey) })

	transport.RegisterMarshaler(transport.WireIDKeyedItemChunks,
		func(buf []byte, v []coll.Chunk[keyedItem]) []byte { return appendChunks(buf, v, appendKeyedItem) },
		func(d *transport.Dec) ([]coll.Chunk[keyedItem], error) { return decChunks(d, 32, decKeyedItem) })

	transport.RegisterMarshaler(transport.WireIDThreshMsg,
		func(buf []byte, v threshMsg) []byte {
			buf = appendKey(buf, v.T)
			buf = transport.AppendBool(buf, v.Have)
			return transport.AppendVarint(buf, int64(v.Size))
		},
		func(d *transport.Dec) (threshMsg, error) {
			return threshMsg{T: decKey(d), Have: d.Bool(), Size: d.Int()}, d.Err()
		})
}
