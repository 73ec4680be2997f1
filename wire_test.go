package reservoir

import (
	"testing"

	"reservoir/internal/transport"
)

// The merged stats payload crosses the wire once per round; its codec
// must survive a round trip bit-exactly, including negative counter
// values (zigzag varints), and reject truncation like every other
// registered format.
func TestClusterStatsWireRoundTrip(t *testing.T) {
	cases := []clusterStats{
		{},
		{
			Net: NetworkStats{Messages: 1, Words: 236, Bytes: 194918},
			Ops: Counters{
				ItemsProcessed:  600000,
				Inserted:        1234,
				CandidateWords:  77,
				Selections:      9,
				SelectionRounds: 244,
				TailSelections:  3,
			},
		},
		{Net: NetworkStats{Messages: -1}, Ops: Counters{ItemsProcessed: -5}},
	}
	for _, want := range cases {
		enc := transport.AppendPayload(nil, want)
		got, err := transport.DecodePayload(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != any(want) {
			t.Fatalf("round trip changed value: got %+v want %+v", got, want)
		}
		for cut := 1; cut < len(enc); cut++ {
			if _, err := transport.DecodePayload(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
			}
		}
	}
}
