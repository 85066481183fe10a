// Input generators. The benchmark owns them: policies are generated as
// source text and go through the parser, traces are drawn from a gravity
// matrix, and everything that varies between runs derives from -seed. The
// program under test receives only what is generated here.
package main

import (
	"fmt"
	"math/rand"
	"strings"

	"snap/internal/dataplane"
	"snap/internal/parser"
	"snap/internal/pkt"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// The two stateful bodies, as the paper writes them (Figure 1 and the FAST
// stateful firewall of Table 3). Subnet 6 is the protected department in
// both, as in the paper's running example.
const (
	firewallSrc = `(if srcip = 10.0.6.0/24 then
  established[srcip][dstip] <- True
else
  if dstip = 10.0.6.0/24 then established[dstip][srcip] else id);
count[inport]++`

	dnsTunnelSrc = `(if dstip = 10.0.6.0/24 & srcport = 53 then
  orphan[dstip][dns.rdata] <- True;
  susp-client[dstip]++;
  if susp-client[dstip] = threshold then blacklist[dstip] <- True else id
else
  if srcip = 10.0.6.0/24 & orphan[srcip][dstip] then
    orphan[srcip][dstip] <- False;
    susp-client[srcip]--
  else id)`
)

// protectedPort is the OBS port of subnet 10.0.6.0/24.
const protectedPort = 6

// parseOpts binds the one symbolic constant the bodies use.
var parseOpts = parser.Options{Consts: map[string]values.Value{"threshold": values.Int(3)}}

// assumptionSrc is the §4.3 operator assumption for n ports: traffic from
// subnet i enters at port i.
func assumptionSrc(n int) string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("(srcip = 10.0.%d.0/24 & inport = %d)", i+1, i+1)
	}
	return strings.Join(terms, " | ")
}

// egressSrc is the §2.1 forwarding policy: subnet i exits port i, anything
// else is dropped.
func egressSrc(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "if dstip = 10.0.%d.0/24 then outport <- %d else ", i, i)
	}
	b.WriteString("drop")
	return b.String()
}

// policySrc composes assumption; body; [ACL;] assign-egress. aclPort > 0
// inserts the live edit: a stateless drop of one source port ahead of
// assign-egress. Each edit uses a port no earlier edit used, so no edit is a
// memo replay of another.
func policySrc(body string, ports, aclPort int) string {
	parts := []string{"(" + assumptionSrc(ports) + ")"}
	if body != "" {
		parts = append(parts, body)
	}
	if aclPort > 0 {
		parts = append(parts, fmt.Sprintf("(if srcport = %d then drop else id)", aclPort))
	}
	parts = append(parts, "("+egressSrc(ports)+")")
	return strings.Join(parts, ";\n")
}

// firstACLPort is the source port edit 0 blocks. Generated traffic uses
// source ports 53 and 1024..2023, and the probe twin uses firstACLPort-1, so
// no ACL ever touches anything but its own probe.
const firstACLPort = 7000

// plainPacket is an ordinary flow packet from subnet u to subnet v.
func plainPacket(u, v int, srcHost, dstHost byte, srcPort int) pkt.Packet {
	return pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:  values.Int(int64(u)),
		pkt.SrcIP:   values.IPv4(10, 0, byte(u), srcHost),
		pkt.DstIP:   values.IPv4(10, 0, byte(v), dstHost),
		pkt.SrcPort: values.Int(int64(srcPort)),
		pkt.DstPort: values.Int(80),
	})
}

// dnsEvery makes one packet in dnsEvery of a DNS-flavoured trace part of a
// DNS exchange with the protected subnet. The gravity draw alone would leave
// the share of stateful traffic to the seed; fixing it keeps the number of
// state entries a swap migrates a property of the workload.
const dnsEvery = 8

// genTrace draws n packets whose port pairs follow the matrix. hosts bounds
// the host byte of every address; dns adds the DNS exchanges that drive the
// tunnel detector: responses into the protected subnet carrying an rdata
// address, and follow-up connections from the protected client, most of them
// to an address a response announced (which clears the orphan entry).
func genTrace(tm traffic.Matrix, n, hosts int, dns bool, seed int64) []dataplane.Ingress {
	pairs := tm.Replay(n, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	host := func() byte { return byte(1 + rng.Intn(hosts)) }
	type announce struct {
		client, rdataHost byte
		rdataNet          int
	}
	var recent [64]announce
	seen := 0
	out := make([]dataplane.Ingress, len(pairs))
	for i, uv := range pairs {
		u, v := uv[0], uv[1]
		p := plainPacket(u, v, host(), host(), 1024+rng.Intn(1000))
		if dns && i%dnsEvery == 0 {
			other := u
			if other == protectedPort {
				other = v
			}
			if (i/dnsEvery)%2 == 0 || seen == 0 {
				a := announce{client: host(), rdataHost: host(), rdataNet: other}
				recent[seen%len(recent)] = a
				seen++
				u = other
				p = plainPacket(u, protectedPort, host(), a.client, 53).
					With(pkt.DNSRData, values.IPv4(10, 0, byte(a.rdataNet), a.rdataHost))
			} else {
				a := recent[rng.Intn(min(seen, len(recent)))]
				if rng.Intn(4) == 0 {
					a.rdataHost = host() // a connection no response announced
				}
				u = protectedPort
				p = plainPacket(u, a.rdataNet, a.client, a.rdataHost, 1024+rng.Intn(1000))
			}
		}
		out[i] = dataplane.Ingress{Port: u, Packet: p}
	}
	return out
}

// probePair picks the port pair the control-plane probes use: seed-driven,
// and never the protected port, so that no stateful branch decides whether a
// probe is delivered.
func probePair(t *topo.Topology, seed int64) (u, v int) {
	var ports []int
	for _, p := range t.PortIDs() {
		if p != protectedPort {
			ports = append(ports, p)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9a0be))
	i := rng.Intn(len(ports))
	j := rng.Intn(len(ports) - 1)
	if j >= i {
		j++
	}
	return ports[i], ports[j]
}

// probe is a one-packet batch from u to v with the given source port.
func probe(u, v, srcPort int) []dataplane.Ingress {
	return []dataplane.Ingress{{Port: u, Packet: plainPacket(u, v, 1, 1, srcPort)}}
}
