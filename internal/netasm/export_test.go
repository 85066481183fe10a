package netasm

// Run visits a copy of sp and returns, beside each result, the packet it
// describes.
func (sw *Switch) Run(sp SimPacket) ([]Result, []SimPacket, error) {
	var forks []SimPacket
	rs, err := sw.Visit(nil, &sp, &forks)
	sps := make([]SimPacket, len(rs))
	for i := range rs {
		sps[i] = *rs[i].Slot(&sp, forks)
	}
	return rs, sps, err
}
