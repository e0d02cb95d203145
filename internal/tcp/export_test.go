package tcp

// Test-only views of the sliding windows and sequence state, for the
// external test package (which can import mptcp and dctcp; this one cannot).

// Window returns the segment window's [base, end) and buffer capacity.
func (s *Sender) Window() (base, end int64, capacity int) {
	return s.segs.Base(), s.segs.End(), s.segs.Cap()
}

// SeqState returns sndUna, sndNxt and the duplicate-ACK count.
func (s *Sender) SeqState() (una, nxt int64, dupacks int) { return s.sndUna, s.sndNxt, s.dupacks }

// Window returns the arrival bitmap's [base, end) and buffer capacity.
func (r *Receiver) Window() (base, end int64, capacity int) {
	return r.got.Base(), r.got.End(), r.got.Cap()
}
