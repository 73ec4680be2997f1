// Package coll is a fixture stub of the collective layer: the tag
// allocator tagdiscipline traces tags to.
package coll

import "transport"

// Comm is a communicator stub.
type Comm struct {
	Conn transport.Conn
	seq  int
}

// NextTag allocates a fresh collective tag (stands in for the real
// unexported allocator when fixtures need a traced tag source).
func (c *Comm) NextTag() int {
	t := c.seq
	c.seq++
	return t
}
