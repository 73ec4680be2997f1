package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

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

	// items holds the items of every batch of the pending "batches" value,
	// in order; spans cut it into batches. flat reports that they hold a
	// value not yet copied into the request.
	items []WireItem
	spans []batchSpan
	flat  bool
}

// batchSpan is one batch of bodyDecoder.items.
type batchSpan struct {
	end  int  // end offset of the batch in items
	null bool // the batch was JSON null
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

// decodeIngest decodes an IngestRequest body in one pass, without
// reflection. It accepts exactly the bodies decodeJSON accepts and yields
// the same values, including encoding/json's quirks: keys match field
// names under Unicode simple case folding, null leaves a value as it was,
// and a repeated key decodes into what the earlier one left.
// FuzzDecodeIngest checks the two against each other.
//
// The items of all batches are parsed into one pooled buffer and copied
// out once into a flat slice that the batches cut, so a decode allocates
// the same few times whatever the number of items.
func (d *bodyDecoder) decodeIngest(data []byte, req *IngestRequest) error {
	d.data, d.off = data, 0
	d.items, d.spans, d.flat = d.items[:0], d.spans[:0], false
	d.skipSpace()
	switch d.peek() {
	case '{':
		if err := d.ingestObject(req); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.errorf("want an object")
	}
	// Decoder.More, which decodeJSON asks, sees no further value before
	// ']' or '}', so those bytes may follow the value.
	d.skipSpace()
	if c := d.peek(); d.off < len(d.data) && c != ']' && c != '}' {
		return errTrailing
	}
	if d.flat {
		req.Batches = d.flatBatches()
	}
	return nil
}

func (d *bodyDecoder) ingestObject(req *IngestRequest) error {
	d.off++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case keyIs(key, "batches"):
			err = d.batchesValue(req)
		case keyIs(key, "synthetic"):
			err = d.syntheticValue(req)
		default:
			err = unknownField(key)
		}
		if err != nil {
			return err
		}
		if done, err := d.next('}'); done || err != nil {
			return err
		}
	}
}

// batchesValue decodes the value of a "batches" key. The first array goes
// into the flat buffer; an array that must merge into batches an earlier
// key left takes decodeSlice, which reuses them as encoding/json does.
func (d *bodyDecoder) batchesValue(req *IngestRequest) error {
	switch d.peek() {
	case 'n':
		req.Batches, d.flat = nil, false
		return d.literal("null")
	case '[':
	default:
		return d.errorf("want an array of batches")
	}
	if d.flat && len(d.spans) > 0 {
		req.Batches, d.flat = d.flatBatches(), false
	}
	if req.Batches != nil {
		return decodeSlice(d, &req.Batches, d.batch)
	}
	d.items, d.spans, d.flat = d.items[:0], d.spans[:0], true
	d.off++ // '['
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		return nil
	}
	for {
		switch d.peek() {
		case '[':
			if err := d.flatItems(); err != nil {
				return err
			}
			d.spans = append(d.spans, batchSpan{end: len(d.items)})
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			d.spans = append(d.spans, batchSpan{end: len(d.items), null: true})
		default:
			return d.errorf("want a batch array")
		}
		if done, err := d.next(']'); done || err != nil {
			return err
		}
	}
}

// flatItems appends the items of one batch array to d.items.
func (d *bodyDecoder) flatItems() error {
	d.off++ // '['
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		return nil
	}
	for {
		d.items = append(d.items, WireItem{})
		if err := d.item(&d.items[len(d.items)-1]); err != nil {
			return err
		}
		if done, err := d.next(']'); done || err != nil {
			return err
		}
	}
}

// flatBatches copies the pending batches out of the pooled scratch: one
// allocation for the items, one for the batch headers.
func (d *bodyDecoder) flatBatches() [][]WireItem {
	flat := make([]WireItem, len(d.items))
	copy(flat, d.items)
	out := make([][]WireItem, len(d.spans))
	start := 0
	for i, s := range d.spans {
		if !s.null {
			out[i] = flat[start:s.end:s.end]
		}
		start = s.end
	}
	return out
}

// batch decodes one batch into *b in place (decodeSlice's element).
func (d *bodyDecoder) batch(b *[]WireItem) error {
	switch d.peek() {
	case '[':
		return decodeSlice(d, b, d.item)
	case 'n':
		*b = nil
		return d.literal("null")
	}
	return d.errorf("want a batch array")
}

// decodeSlice decodes the array at d.off into *p the way encoding/json
// does: elements already in the slice, even past its length within its
// capacity, are decoded into in place, and the slice is then cut to the
// array's length. An empty array leaves a new empty slice.
func decodeSlice[T any](d *bodyDecoder, p *[]T, elem func(*T) error) error {
	s := *p
	d.off++ // '['
	d.skipSpace()
	i := 0
	if d.peek() == ']' {
		d.off++
	} else {
		for {
			if i == cap(s) {
				var zero T
				s = append(s, zero)
			} else if i >= len(s) {
				s = s[:i+1]
			}
			if err := elem(&s[i]); err != nil {
				return err
			}
			i++
			done, err := d.next(']')
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
	}
	if i == 0 {
		s = make([]T, 0)
	}
	*p = s[:i]
	return nil
}

// item decodes one item object into *it. Keys that are absent or null
// leave their field as it was.
func (d *bodyDecoder) item(it *WireItem) error {
	if d.canonicalItem(it) {
		return nil
	}
	switch d.peek() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.errorf("want an item object")
	}
	d.off++
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		isW, err := d.itemKey()
		if err != nil {
			return err
		}
		if d.peek() == 'n' {
			if err := d.literal("null"); err != nil {
				return err
			}
		} else {
			num, err := d.number()
			if err != nil {
				return err
			}
			if isW {
				w, err := num.float()
				if err != nil {
					return fmt.Errorf("w %s: %w", num.raw, err)
				}
				it.W = w
			} else {
				id, ok := num.uint()
				if !ok {
					return fmt.Errorf("id %s is not a uint64", num.raw)
				}
				it.ID = id
			}
		}
		if done, err := d.next('}'); done || err != nil {
			return err
		}
	}
}

// canonicalItem decodes the item at d.off in one straight pass if it has
// the compact form encoding/json writes, {"w":<w>,"id":<id>} with no
// whitespace, w a number without sign or exponent and id an unsigned
// integer. It reads them with digits, and converts w with decimalFloat and
// id with uint, as item would. At the first byte outside that form, or if
// w needs strconv or id is not a uint64, it reports false and leaves *it
// and d.off as they were, and item decodes the item again from its first
// byte on the general path, which the fast one must agree with.
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
	f, ok := decimalFloat(mant, exp, false)
	i = end + len(`,"id":`)
	if !exact || !ok || i >= len(data) || string(data[end:i]) != `,"id":` || !isDigit(data[i]) {
		return false
	}
	end, mant, taken = digits(data, i, 0)
	id := numLit{raw: data[i:end], mant: mant, exact: end-i == taken, plain: true}
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

// itemKey reads an item's key and the ':' after it and reports whether it
// names w (else it names id).
func (d *bodyDecoder) itemKey() (isW bool, err error) {
	// Most keys are the plain "w" or "id", matched here without a scan.
	rest := d.data[d.off:]
	switch {
	case len(rest) >= 3 && string(rest[:3]) == `"w"`:
		d.off += 3
		return true, d.colon()
	case len(rest) >= 4 && string(rest[:4]) == `"id"`:
		d.off += 4
		return false, d.colon()
	}
	key, err := d.key()
	if err != nil {
		return false, err
	}
	if isW = keyIs(key, "w"); !isW && !keyIs(key, "id") {
		return false, unknownField(key)
	}
	return isW, nil
}

// syntheticValue hands the raw bytes of a "synthetic" value to encoding/json,
// which decodes into req.Synthetic strictly, merging into what an earlier
// key left just as an inline decode would.
func (d *bodyDecoder) syntheticValue(req *IngestRequest) error {
	start := d.off
	if err := d.skipValue(1); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(d.data[start:d.off]))
	dec.DisallowUnknownFields()
	return dec.Decode(&req.Synthetic)
}

// skipValue validates the JSON value at d.off and moves past it; depth is
// the number of arrays and objects it sits in.
func (d *bodyDecoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth++; depth > maxNestingDepth {
			return d.errorf("exceeded max depth")
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		d.off++
		d.skipSpace()
		if d.peek() == end {
			d.off++
			return nil
		}
		for {
			if end == '}' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skipValue(depth); err != nil {
				return err
			}
			if done, err := d.next(end); done || err != nil {
				return err
			}
		}
	case c == '"':
		end, err := d.scanString()
		d.off = end
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		_, err := d.number()
		return err
	}
}

// key reads an object key and the ':' after it, returning the key's raw
// bytes between the quotes (escapes not yet resolved).
func (d *bodyDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("want an object key")
	}
	start := d.off + 1
	end, err := d.scanString()
	if err != nil {
		return nil, err
	}
	d.off = end
	return d.data[start : end-1], d.colon()
}

// colon reads the ':' after an object key.
func (d *bodyDecoder) colon() error {
	d.skipSpace()
	if d.peek() != ':' {
		return d.errorf("want ':' after an object key")
	}
	d.off++
	d.skipSpace()
	return nil
}

// keyIs reports whether a raw object key names the field name the way
// encoding/json matches keys: exactly, or else under Unicode simple case
// folding, so "W", "ID" and an escaped "w" all name a field.
func keyIs(raw []byte, name string) bool {
	if string(raw) == name {
		return true
	}
	var buf [32]byte
	return strings.EqualFold(string(appendUnquoted(buf[:0], raw)), name)
}

// appendUnquoted appends the string a validated raw JSON string body
// denotes, resolving escapes as encoding/json does: a lone or mismatched
// UTF-16 surrogate and a byte that is not UTF-8 each become U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			if s[i+1] != 'u' {
				dst = append(dst, unescape[s[i+1]])
				i += 2
				continue
			}
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					r2 = hex4(s[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 parses four validated hex digits.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// scanString validates the string starting at d.off and returns the offset
// just past its closing quote.
func (d *bodyDecoder) scanString() (int, error) {
	data := d.data
	for i := d.off + 1; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			return i + 1, nil
		case c == '\\':
			if i+1 < len(data) && unescape[data[i+1]] != 0 {
				i += 2
				continue
			}
			if i+5 < len(data) && data[i+1] == 'u' && isHex(data[i+2]) && isHex(data[i+3]) && isHex(data[i+4]) && isHex(data[i+5]) {
				i += 6
				continue
			}
			d.off = i
			return 0, d.errorf("invalid escape in string")
		case c < 0x20:
			d.off = i
			return 0, d.errorf("invalid character %q in string", c)
		default:
			i++
		}
	}
	d.off = len(data)
	return 0, d.errorf("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// numLit is a JSON number read by number.
type numLit struct {
	raw []byte
	// When exact, mant holds all the significant digits (at most 19) and
	// the number is (-1 if neg) × mant × 10^exp.
	mant  uint64
	exp   int
	neg   bool
	exact bool
	plain bool // only digits: no sign, fraction or exponent
}

// number reads a JSON number. It checks the grammar itself, because
// strconv.ParseFloat also takes forms JSON does not, such as "Inf", "0x10",
// "1_0" and "+1", and gathers the digits' value in the same pass.
func (d *bodyDecoder) number() (numLit, error) {
	data, start := d.data, d.off
	n := numLit{exact: true}
	i := start
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	n.plain = !n.neg
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		end, mant, taken := digits(data, i, 0)
		n.mant, n.exact, i = mant, end-i == taken, end
	default:
		d.off = i
		return n, d.errorf("want a number")
	}
	if i < len(data) && data[i] == '.' {
		if i+1 >= len(data) || !isDigit(data[i+1]) {
			d.off = i
			return n, d.errorf("want a digit after '.'")
		}
		end, mant, taken := digits(data, i+1, n.mant)
		n.mant, n.exp, n.plain = mant, -taken, false
		n.exact, i = n.exact && end-(i+1) == taken, end
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		sign := 1
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			if data[i] == '-' {
				sign = -1
			}
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return n, d.errorf("want a digit in the exponent")
		}
		e := 0
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 1e6 {
				e = e*10 + int(data[i]-'0')
			}
		}
		n.exp += sign * e
		n.plain = false
	}
	n.raw = data[start:i]
	d.off = i
	return n, nil
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

// float returns the number as a float64, as strconv.ParseFloat would.
func (n numLit) float() (float64, error) {
	if n.exact {
		if f, ok := decimalFloat(n.mant, n.exp, n.neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(string(n.raw), 64)
}

// exactPow10[e] is 10^e, exact in a float64.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decimalFloat returns the float64 nearest (-1 if neg) × mant × 10^exp10,
// or false when it cannot tell which that is cheaply. These are the two
// steps strconv runs before its slow path: when mant and 10^exp10 are both
// exact float64s, one multiplication or division, which rounds once;
// otherwise the Eisel-Lemire algorithm (Lemire, "Number Parsing at a
// Gigabyte per Second", 2021), here on a table of powers of ten limited to
// the exponents common in item weights.
func decimalFloat(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(mant)
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, true
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
	f := retExp2<<52 | retMant&(1<<52-1)
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}

// The exponents pow10Mant covers.
const minPow10, maxPow10 = -40, 40

// pow10Mant[e-minPow10] is 10^e as a 128-bit mantissa {low, high}, shifted
// so the top bit of high is set and rounded down.
var pow10Mant = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	for e := minPow10; e <= maxPow10; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		switch n := p.BitLen(); {
		case e < 0:
			m.Quo(m.Lsh(big.NewInt(1), uint(127+n)), p)
		case n > 128:
			m.Rsh(p, uint(n-128))
		default:
			m.Lsh(p, uint(128-n))
		}
		t[e-minPow10] = [2]uint64{m.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	return t
}()

// uint returns the number as a uint64 and whether it is one, as
// strconv.ParseUint(s, 10, 64) would.
func (n numLit) uint() (uint64, bool) {
	switch {
	case !n.plain:
		return 0, false
	case n.exact:
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

// literal reads the literal lit ("null", "true" or "false").
func (d *bodyDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.errorf("want %s", lit)
	}
	d.off += len(lit)
	return nil
}

// next reads the ',' between two members of an array or object, or the
// close byte that ends it, and reports whether it ended.
func (d *bodyDecoder) next(close byte) (bool, error) {
	d.skipSpace()
	switch d.peek() {
	case ',':
		d.off++
		d.skipSpace()
		return false, nil
	case close:
		d.off++
		return true, nil
	}
	return false, d.errorf("want ',' or '%c'", close)
}

// peek returns the byte at d.off, or 0 at the end of the body.
func (d *bodyDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
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

func (d *bodyDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.off)
}

func unknownField(key []byte) error {
	return fmt.Errorf("unknown field %q", key)
}
