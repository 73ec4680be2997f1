package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"reservoir/internal/store"
)

// extremeWeights are named seeds at the ends of the weight range. A
// subnormal weight draws an exponential key of +Inf, so a weighted run's
// threshold becomes +Inf; ten weights of MaxFloat64 sum past it, so a
// sequential weighted run's weight_seen becomes +Inf.
var extremeWeights = []struct {
	name string
	w    float64
}{
	{"subnormal", 5e-324},
	{"max-float", math.MaxFloat64},
}

// extremeBatches builds p explicit batches of 10 items of weight w.
func extremeBatches(p int, w float64, idBase uint64) string {
	var b strings.Builder
	b.WriteString(`{"batches":[`)
	for pe := 0; pe < p; pe++ {
		if pe > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for i := 0; i < 10; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"w":%s,"id":%d}`, strconv.FormatFloat(w, 'g', -1, 64), idBase)
			idBase++
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestExtremeWeightsEveryKind drives two rounds of each extreme weight
// into every run kind. Every ingest, stats and listing response must be a
// JSON body that decodes, with an overflowed threshold or weight sum
// spelled "+Inf"; recovery must then restore each run from its newest
// slot and re-snapshot it bit for bit.
func TestExtremeWeightsEveryKind(t *testing.T) {
	for _, x := range extremeWeights {
		t.Run(x.name, func(t *testing.T) {
			dir := t.TempDir()
			ts, svc, st := newPersistentServer(t, dir)
			ids := make([]string, len(persistedRunKinds))
			for i, k := range persistedRunKinds {
				ids[i] = createRun(t, ts, k.cfg).ID
				for round := 0; round < 2; round++ {
					var got Stats
					url := ts.URL + "/v1/runs/" + ids[i] + "/batches?wait=true"
					if code, raw := doJSON(t, "POST", url, extremeBatches(k.p, x.w, uint64(round*1000+1)), &got); code != http.StatusOK || got.Rounds != round+1 {
						t.Fatalf("%s: ingest round %d: %d %q", k.name, round, code, raw)
					}
				}
				st := getStats(t, ts, ids[i])
				if st.Rounds != 2 {
					t.Fatalf("%s: stats report round %d, want 2", k.name, st.Rounds)
				}
				if k.name == "sequential" {
					overflowed := st.Threshold
					if x.w == math.MaxFloat64 {
						overflowed = st.WeightSeen
					}
					if !math.IsInf(overflowed, 1) {
						t.Fatalf("%s: stats %+v, want a +Inf threshold or weight sum to exercise", k.name, st)
					}
				}
			}
			var list ListResponse
			if code, raw := doJSON(t, "GET", ts.URL+"/v1/runs", "", &list); code != http.StatusOK || len(list.Runs) != len(ids) {
				t.Fatalf("list: %d %q", code, raw)
			}
			svc.Close()
			st.Close()
			ts.Close()

			st, err := store.Open(dir, store.WithFsync(store.FsyncOff))
			if err != nil {
				t.Fatal(err)
			}
			newest := make([]*store.Snapshot, len(ids))
			for i, id := range ids {
				_, slots, err := st.OpenSlots(id)
				if err != nil {
					t.Fatal(err)
				}
				newest[i], err = slots.Latest()
				slots.Close()
				if err != nil || newest[i] == nil {
					t.Fatalf("%s: newest slot: %v", persistedRunKinds[i].name, err)
				}
			}
			st.Close()
			rsvc, rst := openRecovered(t, dir)
			defer func() { rsvc.Close(); rst.Close() }()
			for i, id := range ids {
				r, ok := rsvc.lookup(id)
				if !ok {
					t.Fatalf("%s: not recovered", persistedRunKinds[i].name)
				}
				snap, err := r.boundary()
				if err != nil {
					t.Fatal(err)
				}
				if want := newest[i]; snap.Round != want.Round || snap.Kind != want.Kind || !bytes.Equal(snap.Blob, want.Blob) {
					t.Errorf("%s: recovered run re-snapshots round %d tag %d (%d bytes), slot holds round %d tag %d (%d bytes)",
						persistedRunKinds[i].name, snap.Round, snap.Kind, len(snap.Blob), want.Round, want.Kind, len(want.Blob))
				}
			}
		})
	}
}

// TestStatsJSONFloats: Stats encodes a finite float byte for byte as
// encoding/json does, spells a non-finite one as a string, and decodes
// both forms back to the same value.
func TestStatsJSONFloats(t *testing.T) {
	type plain Stats // no MarshalJSON: encoding/json's own encoding
	for _, f := range []float64{0, 1, -2.5, 1e-7, 123456.789, 1e21, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		in := Stats{ID: "r1", Threshold: f, WeightSeen: f, VirtualTimeNS: 3, Network: &NetworkStats{Messages: 1}}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if want, err := json.Marshal(plain(in)); err == nil && !bytes.Equal(b, want) {
			t.Fatalf("%v: encoded %s, encoding/json gives %s", f, b, want)
		} else if err != nil && !strings.Contains(string(b), `"threshold":"`) {
			t.Fatalf("%v: non-finite threshold encoded as %s", f, b)
		}
		var out Stats
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%v: decoding %s: %v", f, b, err)
		}
		same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
		if !same(out.Threshold, f) || !same(out.WeightSeen, f) || out.ID != "r1" || out.VirtualTimeNS != 3 || out.Network.Messages != 1 {
			t.Fatalf("%v: decoded %+v from %s", f, out, b)
		}
	}
	var out Stats
	if err := json.Unmarshal([]byte(`{"threshold":"inf"}`), &out); err == nil {
		t.Fatal(`decoded "inf" without an error`)
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses answers 500
// with the error envelope instead of a committed, empty 200.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusInternalServerError || err != nil || env["error"] == "" {
		t.Fatalf("got %d %q", rec.Code, rec.Body)
	}
}
