package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"reservoir"
	wl "reservoir/internal/workload"
)

// referenceDecodeIngest is the strict encoding/json decode that
// decodeIngest replaces, kept as the specification it must match.
func referenceDecodeIngest(body []byte) (IngestRequest, error) {
	var req IngestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if dec.More() {
		return req, errTrailing
	}
	return req, nil
}

func decodeIngestBytes(body []byte) (IngestRequest, error) {
	var req IngestRequest
	d := bodyDecoderPool.Get().(*bodyDecoder)
	defer d.release()
	err := d.decodeIngest(body, &req)
	return req, err
}

// ingestDiff describes how two decoded requests differ, or returns "".
// Weights compare by their bits, and nil and empty slices differ.
func ingestDiff(got, want IngestRequest) string {
	if (got.Batches == nil) != (want.Batches == nil) || len(got.Batches) != len(want.Batches) {
		return fmt.Sprintf("batches: got %v, want %v", got.Batches, want.Batches)
	}
	for i := range want.Batches {
		g, w := got.Batches[i], want.Batches[i]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Sprintf("batch %d: got %v, want %v", i, g, w)
		}
		for j := range w {
			if math.Float64bits(g[j].W) != math.Float64bits(w[j].W) || g[j].ID != w[j].ID {
				return fmt.Sprintf("batch %d item %d: got %+v, want %+v", i, j, g[j], w[j])
			}
		}
	}
	if !reflect.DeepEqual(got.Synthetic, want.Synthetic) {
		return fmt.Sprintf("synthetic: got %+v, want %+v", got.Synthetic, want.Synthetic)
	}
	return ""
}

func checkDecodeIngest(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceDecodeIngest(body)
	got, err := decodeIngestBytes(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %q: got error %v, reference error %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if diff := ingestDiff(got, want); diff != "" {
		t.Fatalf("body %q: %s", body, diff)
	}
}

// FuzzDecodeIngest checks decodeIngest against encoding/json: the same
// accept or reject, and on accept the same request. Its seed corpus,
// testdata/fuzz/FuzzDecodeIngest, holds a body for each edge of the
// grammar and of encoding/json's decoding rules, named after it.
func FuzzDecodeIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			return
		}
		checkDecodeIngest(t, body)
	})
}

// paretoBody is the service_ingest benchmark's request shape: p batches of
// n Pareto(1.5) items.
func paretoBody(tb testing.TB, p, n int) []byte {
	tb.Helper()
	gen := reservoir.ParetoSource{Seed: 1, BatchLen: n, Shape: 1.5}
	req := IngestRequest{Batches: make([][]WireItem, p)}
	for pe := range req.Batches {
		for _, it := range wl.Materialize(gen.NextBatch(pe, 1)) {
			req.Batches[pe] = append(req.Batches[pe], WireItem{W: it.W, ID: it.ID})
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func TestDecodeBodyParetoRoundTrip(t *testing.T) {
	body := paretoBody(t, 4, 1000)
	checkDecodeIngest(t, body)
}

// fmtBody is a client body written with fmt rather than encoding/json: p
// batches of n items, weights 1+k/10 as %g and ids drawn from an LCG,
// about half of them 20 digits long.
func fmtBody(p, n int) []byte {
	b := []byte(`{"batches":[`)
	id := uint64(1)
	for pe := range p {
		if pe > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i := range n {
			if i > 0 {
				b = append(b, ',')
			}
			id = id*6364136223846793005 + 1442695040888963407
			b = fmt.Appendf(b, `{"w":%g,"id":%d}`, 1+float64(id%997)/10, id)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// TestCanonicalItemTakesClientBodies pins that client items, whether
// encoding/json or fmt writes them, all take the fast item step rather
// than handing over to the general path, and that the bodies decode as
// encoding/json decodes them.
func TestCanonicalItemTakesClientBodies(t *testing.T) {
	for name, body := range map[string][]byte{
		"pareto": paretoBody(t, 4, 1000),
		"fmt":    fmtBody(4, 1000),
	} {
		checkDecodeIngest(t, body)
		d := &bodyDecoder{data: body}
		items, handovers := 0, 0
		for {
			j := bytes.Index(body[d.off:], []byte(`{"w":`))
			if j < 0 {
				break
			}
			d.off += j
			items++
			var it WireItem
			if !d.canonicalItem(&it) {
				handovers++
				d.off++
			}
		}
		if items != 4000 || handovers != 0 {
			t.Errorf("%s: %d of %d items handed over", name, handovers, items)
		}
	}
}

// BenchmarkDecodeBody pins the HTTP decode layer of an explicit ingest
// round: DecodeBody on a 4×1000-item body as encoding/json writes it
// (Pareto weights, the service_ingest benchmark's) and as fmtBody writes
// it. Run with -benchmem.
func BenchmarkDecodeBody(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"pareto", paretoBody(b, 4, 1000)},
		{"fmt", fmtBody(4, 1000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for b.Loop() {
				req := httptest.NewRequest("POST", "/", bytes.NewReader(bc.body))
				var v IngestRequest
				if err := DecodeBody(httptest.NewRecorder(), req, maxIngestBytes, &v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeIngestAllocsFlat pins that a decode allocates the same few
// times whatever its item count. The decoder is not taken from the pool,
// which drops entries at random under the race detector.
func TestDecodeIngestAllocsFlat(t *testing.T) {
	allocs := func(body []byte) float64 {
		d := new(bodyDecoder)
		return testing.AllocsPerRun(20, func() {
			var req IngestRequest
			if err := d.decodeIngest(body, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(paretoBody(t, 4, 10)), allocs(paretoBody(t, 4, 1000))
	if small != large {
		t.Fatalf("a 4×10 body costs %v allocations, a 4×1000 body %v", small, large)
	}
}

// TestDecodeIngestTruncated cuts canonical bodies at every byte offset. The
// digit reader loads eight bytes at a time, so near the end of a body it
// must fall back to single bytes, never read past the end and panic.
func TestDecodeIngestTruncated(t *testing.T) {
	for _, body := range [][]byte{
		paretoBody(t, 2, 3),
		fmtBody(2, 3),
		[]byte(`{"batches":[[{"w":12345678.123456789,"id":1234567812345678}],[{"w":1,"id":9}]]}`),
	} {
		for cut := range len(body) + 1 {
			checkDecodeIngest(t, bytes.Clone(body[:cut]))
		}
	}
}

// TestNumberFloatMatchesStrconv checks the weight parser bit for bit
// against strconv.ParseFloat on random float64s in the forms encoding/json
// and other encoders write, on their neighbours at 17-19 digits, and on
// short and long decimals. Each string is also decoded by decodeIngest as
// the w of a canonical item and held bit for bit to encoding/json's decode
// of it, which covers the fast item step and its hand-over to the general
// path.
func TestNumberFloatMatchesStrconv(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	ing := new(bodyDecoder)
	checkItem := func(s string) {
		t.Helper()
		var req IngestRequest
		err := ing.decodeIngest([]byte(`{"batches":[[{"w":`+s+`,"id":7}]]}`), &req)
		var want float64
		wantErr := json.Unmarshal([]byte(s), &want)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("w %s: got error %v, encoding/json gives %v", s, err, wantErr)
		case err == nil && (math.Float64bits(req.Batches[0][0].W) != math.Float64bits(want) || req.Batches[0][0].ID != 7):
			t.Fatalf("w %s: got %+v, encoding/json gives w %v", s, req.Batches[0][0], want)
		}
	}
	d := new(bodyDecoder)
	check := func(s string) {
		t.Helper()
		checkItem(s)
		d.data, d.off = []byte(s), 0
		n, err := d.number()
		if err != nil || d.off != len(s) {
			return // not JSON grammar; strconv is not the reference
		}
		got, gotErr := n.float()
		want, wantErr := strconv.ParseFloat(s, 64)
		if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v (%v), strconv gives %v (%v)", s, got, gotErr, want, wantErr)
		}
	}
	for range 200_000 {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(f, 'e', r.IntN(20), 64))
		w := 1 / math.Pow(r.Float64(), 1/1.5) // Pareto(1.5), the benchmark's weights
		check(strconv.FormatFloat(w, 'g', -1, 64))
		check(strconv.FormatFloat(w, 'f', 15+r.IntN(5), 64))
		check(strconv.FormatFloat(w*math.Pow10(r.IntN(80)-40), 'g', -1, 64))
		check(strconv.FormatFloat(1+float64(r.IntN(997))/10, 'g', -1, 64)) // fmtBody's
		// A decimal point anywhere in 2 to 24 digits: mantissas on both
		// sides of 2^53 and of 10^19.
		ds := make([]byte, 2+r.IntN(23))
		for j := range ds {
			ds[j] = '0' + byte(r.IntN(10))
		}
		ds[0] = '1' + byte(r.IntN(9))
		k := 1 + r.IntN(len(ds)-1)
		check(string(ds[:k]) + "." + string(ds[k:]))
	}
}
