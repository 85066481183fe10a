// Package pkt models SNAP packets as flat records of typed header fields.
//
// SNAP assumes a rich, programmable-parser field set (§2.1 footnote 1): in
// addition to the classic 5-tuple it references DNS response data, FTP port
// announcements, SMTP transfer agents, HTTP user agents, MPEG frame types and
// raw payload content. Those "deep" fields are modeled as first-class packet
// fields, mirroring the preprocessor/middlebox-style extraction the paper
// assumes (§6.1). Packets are small value types; copying one is cheap, which
// the multicast semantics of parallel composition relies on.
package pkt

import (
	"fmt"
	"sort"
	"strings"

	"snap/internal/values"
)

// Field identifies a packet header field.
type Field uint8

// The field universe. Inport and Outport are the one-big-switch ports of the
// abstract topology; the compiler's SNAP-header bookkeeping fields (§4.5) are
// internal to the data plane and deliberately not part of this set.
const (
	FieldNone Field = iota
	Inport
	Outport
	SrcIP
	DstIP
	SrcPort
	DstPort
	Proto
	TCPFlags
	EthSrc
	EthDst
	DNSQName
	DNSRData
	DNSTTL
	FTPPort
	SMTPMTA
	HTTPUserAgent
	MPEGFrameType
	SessionID
	Content
	NumFields // sentinel: one past the last valid field
)

var fieldNames = map[Field]string{
	Inport:        "inport",
	Outport:       "outport",
	SrcIP:         "srcip",
	DstIP:         "dstip",
	SrcPort:       "srcport",
	DstPort:       "dstport",
	Proto:         "proto",
	TCPFlags:      "tcp.flags",
	EthSrc:        "ethsrc",
	EthDst:        "ethdst",
	DNSQName:      "dns.qname",
	DNSRData:      "dns.rdata",
	DNSTTL:        "dns.ttl",
	FTPPort:       "ftp.port",
	SMTPMTA:       "smtp.mta",
	HTTPUserAgent: "http.user-agent",
	MPEGFrameType: "mpeg.frame-type",
	SessionID:     "sid",
	Content:       "content",
}

var fieldsByName = func() map[string]Field {
	m := make(map[string]Field, len(fieldNames))
	for f, n := range fieldNames {
		m[n] = f
	}
	return m
}()

// String returns the surface-syntax name of the field.
func (f Field) String() string {
	if n, ok := fieldNames[f]; ok {
		return n
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// Valid reports whether f is a declared field.
func (f Field) Valid() bool { return f > FieldNone && f < NumFields }

// FieldByName resolves a surface-syntax field name.
func FieldByName(name string) (Field, bool) {
	f, ok := fieldsByName[name]
	return f, ok
}

// FieldNames returns all field names in a deterministic order, for
// diagnostics and documentation.
func FieldNames() []string {
	names := make([]string, 0, len(fieldsByName))
	for n := range fieldsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Packet is an immutable-by-convention record of field values. The zero
// Packet has every field absent.
type Packet struct {
	fields [NumFields]values.Value
}

// New builds a packet from field assignments.
func New(fields map[Field]values.Value) Packet {
	var p Packet
	for f, v := range fields {
		if f.Valid() {
			p.fields[f] = v
		}
	}
	return p
}

// Field returns the value of f (values.None if unset). The receiver is a
// pointer because a Packet is 800 bytes and the switch VM reads one field
// per branch instruction: with a value receiver every read copied the
// packet (16–26 % of a ctl-enterprise benchmark run sat in duffcopy), and
// the copy's speed followed the parity of the stack pointer, so
// ns_per_packet moved ±15 % with the depth of the caller's frames.
func (p *Packet) Field(f Field) values.Value {
	if !f.Valid() {
		return values.None
	}
	return p.fields[f]
}

// With returns a copy of p with field f set to v (the f ← v modification of
// the language).
func (p Packet) With(f Field, v values.Value) Packet {
	if f.Valid() {
		p.fields[f] = v
	}
	return p
}

// Set sets field f to v in place: With for a packet the caller owns.
func (p *Packet) Set(f Field, v values.Value) {
	if f.Valid() {
		p.fields[f] = v
	}
}

// Equal reports whether two packets agree on every field under semantic
// value equality (values.Eq, which coerces booleans and integers). Equal
// and Key are consistent: p.Equal(q) ⇔ p.Key() == q.Key().
func (p Packet) Equal(q Packet) bool {
	for f := Field(1); f < NumFields; f++ {
		if !values.Eq(p.fields[f], q.fields[f]) {
			return false
		}
	}
	return true
}

// Key returns a canonical encoding of the packet, used to compare packet
// sets in tests.
func (p Packet) Key() string {
	var b strings.Builder
	for f := Field(1); f < NumFields; f++ {
		if !p.fields[f].IsNone() {
			fmt.Fprintf(&b, "%s=%s;", f, p.fields[f].Key())
		}
	}
	return b.String()
}

// String renders the set fields of the packet.
func (p Packet) String() string {
	var parts []string
	for f := Field(1); f < NumFields; f++ {
		if !p.fields[f].IsNone() {
			parts = append(parts, fmt.Sprintf("%s=%s", f, p.fields[f]))
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SortKeys orders a packet slice canonically in place, for deterministic
// comparison of multicast results.
func SortKeys(ps []Packet) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key() < ps[j].Key() })
}
