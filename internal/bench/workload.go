// The campus monitor workload: the policy and the packet trace the
// failover experiment and the controller's tests replay. Timing it is
// snapmark's job (benchmark/, workload fwd-campus); here it only has to be
// the same workload everywhere it is used.
package bench

import (
	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/shard"
	"snap/internal/syntax"
	"snap/internal/values"
)

// MonitorWorkload builds the monitor policy on n ports: assumption;
// (count[inport]++; assign-egress), optionally sharded per ingress port
// (Appendix C).
func MonitorWorkload(sharded bool, ports int) (syntax.Policy, error) {
	inner := apps.Monitor()
	if sharded {
		ps := make([]int, ports)
		for i := range ps {
			ps[i] = i + 1
		}
		var err error
		inner, err = shard.Apply(inner, shard.PortsPlan("count", ps))
		if err != nil {
			return nil, err
		}
	}
	return syntax.Then(
		apps.Assumption(ports),
		syntax.Then(inner, apps.AssignEgress(ports)),
	), nil
}

// ReplayIngress turns a traffic-matrix trace over the campus ports into
// concrete packets honoring the assumption policy (srcip in the ingress
// subnet) and addressed so assign-egress forwards to the pair's egress.
func ReplayIngress(pairs [][2]int) []dataplane.Ingress {
	out := make([]dataplane.Ingress, len(pairs))
	for i, uv := range pairs {
		u, v := uv[0], uv[1]
		out[i] = dataplane.Ingress{
			Port: u,
			Packet: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport:  values.Int(int64(u)),
				pkt.SrcIP:   values.IPv4(10, 0, byte(u), byte(1+i%200)),
				pkt.DstIP:   values.IPv4(10, 0, byte(v), byte(1+i%200)),
				pkt.SrcPort: values.Int(int64(1024 + i%1000)),
				pkt.DstPort: values.Int(80),
			}),
		}
	}
	return out
}
