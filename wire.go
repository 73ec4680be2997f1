package reservoir

import "reservoir/internal/transport"

// clusterStats crosses the wire on every stats refresh (ClusterStats'
// reduction), so it gets a wire codec like the rest of the hot round
// traffic; see internal/transport/wire.go for the ID table and DESIGN.md
// §2.4 for the format.
func init() {
	transport.RegisterMarshaler(transport.WireIDClusterStats,
		func(buf []byte, v clusterStats) []byte {
			buf = transport.AppendVarint(buf, v.Net.Messages)
			buf = transport.AppendVarint(buf, v.Net.Words)
			buf = transport.AppendVarint(buf, v.Net.Bytes)
			buf = transport.AppendVarint(buf, v.Ops.ItemsProcessed)
			buf = transport.AppendVarint(buf, v.Ops.Inserted)
			buf = transport.AppendVarint(buf, v.Ops.CandidateWords)
			buf = transport.AppendVarint(buf, v.Ops.Selections)
			buf = transport.AppendVarint(buf, v.Ops.SelectionRounds)
			buf = transport.AppendVarint(buf, v.Ops.TailSelections)
			buf = transport.AppendVarint(buf, v.Phase.ScanNS)
			buf = transport.AppendVarint(buf, v.Phase.CollNS)
			buf = transport.AppendVarint(buf, v.Phase.OverlapNS)
			buf = transport.AppendVarint(buf, v.Phase.RoundNS)
			return transport.AppendVarint(buf, v.Phase.FlushNS)
		},
		func(d *transport.Dec) (clusterStats, error) {
			return clusterStats{
				Net: NetworkStats{
					Messages: d.Varint(),
					Words:    d.Varint(),
					Bytes:    d.Varint(),
				},
				Ops: Counters{
					ItemsProcessed:  d.Varint(),
					Inserted:        d.Varint(),
					CandidateWords:  d.Varint(),
					Selections:      d.Varint(),
					SelectionRounds: d.Varint(),
					TailSelections:  d.Varint(),
				},
				Phase: PhaseStats{
					ScanNS:    d.Varint(),
					CollNS:    d.Varint(),
					OverlapNS: d.Varint(),
					RoundNS:   d.Varint(),
					FlushNS:   d.Varint(),
				},
			}, d.Err()
		})
}
