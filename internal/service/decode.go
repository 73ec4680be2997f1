package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// A bodyDecoder whose buffers outgrew these caps is dropped rather than
// pooled, so one huge request does not pin its memory.
const (
	maxPooledBody  = 8 << 20 // bytes
	maxPooledItems = 1 << 19 // 8 MiB of 16-byte items
)

// bodyDecoder holds the pooled buffers of one request-body decode: the body
// bytes and, for an IngestRequest, the scratch its batches are parsed into.
type bodyDecoder struct {
	body bytes.Buffer

	data []byte // the body being decoded
	off  int    // read offset into data

	// items holds the items of every batch, in order; ends holds the end
	// offset of each batch in items.
	items []WireItem
	ends  []int
}

var bodyDecoderPool = sync.Pool{New: func() any { return new(bodyDecoder) }}

func (d *bodyDecoder) release() {
	d.data = nil
	if d.body.Cap() > maxPooledBody || cap(d.items) > maxPooledItems {
		return
	}
	bodyDecoderPool.Put(d)
}

// decodeJSON strictly decodes the one JSON value in data into v with
// encoding/json.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailing
	}
	return nil
}

var errTrailing = errors.New("trailing data after the JSON value")

// decodeIngest decodes an IngestRequest body exactly as decodeJSON would.
// A body wholly in the compact form encoding/json writes takes
// compactIngest, without reflection; every other body, and one holding a
// number that compactIngest cannot convert, is decoded by decodeJSON from
// its first byte. FuzzDecodeIngest checks the two paths against each other.
//
// The compact path parses the items of all batches into one pooled buffer
// and copies them out once into a flat slice that the batches cut, so a
// decode allocates the same few times whatever the number of items.
func (d *bodyDecoder) decodeIngest(data []byte, req *IngestRequest) error {
	if !d.compactIngest(data) {
		return decodeJSON(data, req)
	}
	req.Batches = d.flatBatches()
	return nil
}

// compactIngest parses data into d.items and d.ends and reports whether it
// is wholly {"batches":[[{"w":<w>,"id":<id>},…],…]}, with no whitespace
// but around the whole, and every item converts on canonicalItem's path.
// At the first byte outside that form it reports false, and what it parsed
// is to be dropped.
func (d *bodyDecoder) compactIngest(data []byte) bool {
	d.data, d.off = data, 0
	d.items, d.ends = d.items[:0], d.ends[:0]
	d.skipSpace()
	const open = `{"batches":[`
	if !bytes.HasPrefix(data[d.off:], []byte(open)) {
		return false
	}
	d.off += len(open)
	batches := d.array(func() bool {
		if !d.eat('[') || !d.array(d.item) {
			return false
		}
		d.ends = append(d.ends, len(d.items))
		return true
	})
	if !batches || !d.eat('}') {
		return false
	}
	d.skipSpace()
	return d.off == len(data)
}

// array parses the rest of an array whose '[' it has read, with elem
// parsing each element, and reports whether all of it was compact.
func (d *bodyDecoder) array(elem func() bool) bool {
	if d.eat(']') {
		return true
	}
	for elem() {
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
	return false
}

// item parses one item onto d.items.
func (d *bodyDecoder) item() bool {
	d.items = append(d.items, WireItem{})
	return d.canonicalItem(&d.items[len(d.items)-1])
}

// flatBatches copies the parsed batches out of the pooled scratch: one
// allocation for the items, one for the batch headers.
func (d *bodyDecoder) flatBatches() [][]WireItem {
	flat := make([]WireItem, len(d.items))
	copy(flat, d.items)
	out := make([][]WireItem, len(d.ends))
	start := 0
	for i, end := range d.ends {
		out[i] = flat[start:end:end]
		start = end
	}
	return out
}

// canonicalItem decodes the item at d.off in one straight pass if it has
// the compact form encoding/json writes, {"w":<w>,"id":<id>} with no
// whitespace, w a number without sign or exponent and id an unsigned
// integer. It reads them with digits, and converts w with decimalFloat and
// id with uint. At the first byte outside that form, or if w needs strconv
// or id is not a uint64, it reports false.
func (d *bodyDecoder) canonicalItem(it *WireItem) bool {
	data, i := d.data, d.off+len(`{"w":`)
	if i >= len(data) || string(data[d.off:i]) != `{"w":` || !isDigit(data[i]) {
		return false
	}
	end, mant, taken := digits(data, i, 0)
	if data[i] == '0' && end-i > 1 {
		return false
	}
	exact, exp := end-i == taken, 0
	if end < len(data) && data[end] == '.' {
		frac := end + 1
		end, mant, taken = digits(data, frac, mant)
		if end == frac {
			return false
		}
		exact, exp = exact && end-frac == taken, -taken
	}
	f, ok := decimalFloat(mant, exp)
	i = end + len(`,"id":`)
	if !exact || !ok || i >= len(data) || string(data[end:i]) != `,"id":` || !isDigit(data[i]) {
		return false
	}
	end, mant, taken = digits(data, i, 0)
	id := numLit{raw: data[i:end], mant: mant, exact: end-i == taken}
	if data[i] == '0' && end-i > 1 || end >= len(data) || data[end] != '}' {
		return false
	}
	v, ok := id.uint()
	if !ok {
		return false
	}
	it.W, it.ID, d.off = f, v, end+1
	return true
}

// numLit is a run of decimal digits as digits reads it.
type numLit struct {
	raw []byte
	// When exact, mant holds the value of all the digits (at most 19).
	mant  uint64
	exact bool
}

// digits reads the run of digits at data[i:], appending to mant as many as
// keep it below 10^19. It returns the offset past the run, the new mant and
// how many digits it took. While mant has room for eight more digits and
// eight bytes remain, it checks and combines them within one 64-bit word.
func digits(data []byte, i int, mant uint64) (end int, _ uint64, taken int) {
	start := i
	for mant < 1e10 && len(data)-i >= 8 {
		v := binary.LittleEndian.Uint64(data[i:])
		// A byte is a digit iff neither adding 0x46 nor subtracting 0x30
		// sets its top bit.
		if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
			break
		}
		mant = mant*1e8 + eightDigits(v-0x3030303030303030)
		i += 8
	}
	for ; i < len(data) && isDigit(data[i]) && mant < 1e18; i++ {
		mant = mant*10 + uint64(data[i]-'0')
	}
	taken = i - start
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i, mant, taken
}

// eightDigits returns the value of the eight decimal digits v holds, one
// per byte, most significant in the lowest byte: pairs, then quads, then
// the two halves combine by multiplication within the word.
func eightDigits(v uint64) uint64 {
	v = v*10 + v>>8 // byte 2j holds the pair 2j, 2j+1
	const mask = 0x000000FF000000FF
	return uint64(uint32(((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32))
}

// exactPow10[e] is 10^e, exact in a float64.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decimalFloat returns the float64 nearest mant × 10^exp10, or false when
// it cannot tell which that is cheaply. These are the two steps strconv
// runs before its slow path: when mant and 10^exp10 are both exact
// float64s, one multiplication or division, which rounds once; otherwise
// the Eisel-Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
// Second", 2021), here on a table of powers of ten limited to the
// exponents a compact w can have.
func decimalFloat(mant uint64, exp10 int) (float64, bool) {
	if mant == 0 {
		return 0, true
	}
	if mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(mant)
		if exp10 < 0 {
			return f / exactPow10[-exp10], true
		}
		return f * exactPow10[exp10], true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	// Normalize, then multiply by the 128-bit power of ten.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	pow := pow10Mant[exp10-minPow10]
	xHi, xLo := bits.Mul64(mant, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+mant < mant {
		// The truncated power may have cut a carry: widen.
		yHi, yLo := bits.Mul64(mant, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Keep 54 bits, refuse a halfway case, then round to 53.
	msb := xHi >> 63
	retMant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 {
		return 0, false
	}
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, infinite or NaN
	}
	return math.Float64frombits(retExp2<<52 | retMant&(1<<52-1)), true
}

// The exponents pow10Mant covers. A compact w has no exponent part, so
// its power of ten is never positive.
const minPow10, maxPow10 = -40, 0

// pow10Mant[e-minPow10] is 10^e as a 128-bit mantissa {low, high}, shifted
// so the top bit of high is set and rounded down.
var pow10Mant = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	for e := minPow10; e <= maxPow10; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		switch n := p.BitLen(); {
		case e < 0:
			m.Quo(m.Lsh(big.NewInt(1), uint(127+n)), p)
		default:
			m.Lsh(p, uint(128-n))
		}
		t[e-minPow10] = [2]uint64{m.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	return t
}()

// uint returns the digits' value and whether it fits a uint64, as
// strconv.ParseUint(s, 10, 64) would.
func (n numLit) uint() (uint64, bool) {
	if n.exact {
		return n.mant, true
	}
	// 20 digits: at most 1<<64-1 fits.
	var v uint64
	for _, c := range n.raw {
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// eat moves past the byte c at d.off and reports whether it was there.
func (d *bodyDecoder) eat(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

func (d *bodyDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}
