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

// BenchmarkDecodeBody pins the HTTP decode layer of an explicit ingest
// round: DecodeBody on a 4×1000-item Pareto body. Run with -benchmem.
func BenchmarkDecodeBody(b *testing.B) {
	body := paretoBody(b, 4, 1000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		req := httptest.NewRequest("POST", "/", bytes.NewReader(body))
		var v IngestRequest
		if err := DecodeBody(httptest.NewRecorder(), req, maxIngestBytes, &v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNumberFloatMatchesStrconv checks the weight parser bit for bit
// against strconv.ParseFloat on random float64s in the forms encoding/json
// and other encoders write, and on their neighbours at 17-19 digits.
func TestNumberFloatMatchesStrconv(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	d := new(bodyDecoder)
	check := func(s string) {
		t.Helper()
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
	}
}
