package types

// Equal reports whether two profiles are identical: the oracle of the
// encoding round-trip tests.
func (p *TxProfile) Equal(q *TxProfile) bool {
	if p.GasUsed != q.GasUsed || len(p.Reads) != len(q.Reads) || len(p.Writes) != len(q.Writes) {
		return false
	}
	for i := range p.Reads {
		if p.Reads[i] != q.Reads[i] {
			return false
		}
	}
	for i := range p.Writes {
		if p.Writes[i] != q.Writes[i] {
			return false
		}
	}
	return true
}
