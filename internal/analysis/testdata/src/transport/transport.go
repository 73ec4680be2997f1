// Package transport is a fixture stub mirroring the shapes the analyzers
// key on: the Conn interface, the Fault marker and the reserved control-tag
// constant.
package transport

// Conn mirrors the real point-to-point transport interface.
type Conn interface {
	ID() int
	P() int
	Send(to, tag int, payload any, words int)
	Recv(from, tag int) any
	Work(ns float64)
	Clock() float64
}

// CtrlTag is the reserved control-plane tag.
const CtrlTag = 0x7fffffff

// Fault marks a recoverable transport failure.
type Fault interface {
	error
	TransportFault()
}

// FatalError is an unrecoverable transport failure.
type FatalError struct {
	Msg string
}

func (e *FatalError) Error() string { return e.Msg }

// AsFault extracts a Fault from a recovered panic value.
func AsFault(r any) (Fault, bool) {
	f, ok := r.(Fault)
	return f, ok
}

// IsTransportPanic reports whether r is a transport-originated panic.
func IsTransportPanic(r any) bool {
	if _, ok := r.(Fault); ok {
		return true
	}
	_, ok := r.(*FatalError)
	return ok
}
