package faultnet

import (
	"math"
	"reflect"
	"testing"

	"reservoir/internal/transport"
)

// The envelope codec nests the wrapped payload's own wire encoding; both
// layers must survive the round trip so fault-injected tcpnet runs stay
// byte-equivalent to bare ones.
func TestEnvelopeWireRoundTrip(t *testing.T) {
	cases := []envelope{
		{Seq: 0, Payload: []int{1, -2, 3}},
		{Seq: 1 << 40, Payload: math.Copysign(0, -1)},
		{Seq: 7, Corrupt: true}, // corrupt copies carry no payload
	}
	for _, env := range cases {
		body := transport.AppendPayload(nil, env)
		got, err := transport.DecodePayload(body)
		if err != nil {
			t.Fatalf("seq %d: decode: %v", env.Seq, err)
		}
		genv, ok := got.(envelope)
		if !ok {
			t.Fatalf("seq %d: decoded %T, want envelope", env.Seq, got)
		}
		if genv.Seq != env.Seq || genv.Corrupt != env.Corrupt {
			t.Fatalf("header round trip: sent %+v, got %+v", env, genv)
		}
		if f, fok := env.Payload.(float64); fok {
			if math.Float64bits(genv.Payload.(float64)) != math.Float64bits(f) {
				t.Fatalf("float payload not bit-exact: %v vs %v", env.Payload, genv.Payload)
			}
		} else if !reflect.DeepEqual(genv.Payload, env.Payload) {
			t.Fatalf("payload round trip: sent %v, got %v", env.Payload, genv.Payload)
		}
	}
}

// A hostile frame nesting envelopes in envelopes must hit the decoder's
// depth bound, not the goroutine stack.
func TestEnvelopeNestingBounded(t *testing.T) {
	body := transport.AppendPayload(nil, 42)
	for i := 0; i < 64; i++ {
		hdr := []byte{transport.WireIDEnvelope}
		hdr = transport.AppendUvarint(hdr, uint64(i))
		hdr = transport.AppendBool(hdr, false)
		hdr = transport.AppendBool(hdr, true)
		body = append(hdr, body...)
	}
	if _, err := transport.DecodePayload(body); err == nil {
		t.Fatal("64-deep envelope nest decoded without tripping the depth bound")
	}
}
