package wire

// ProcSteer is the dlib procedure returning the current SteerStatus:
// the live flow parameters, who holds the steering lock, and the
// steering change counter. Steering state rides its own procedure
// rather than FrameReply so the frame byte streams — and every golden
// corpus entry built from them — are unchanged by the live subsystem.
const ProcSteer = "vw.steer"

// SteerStatus is the remote host's view of live steering.
type SteerStatus struct {
	InflowU  float32
	Reynolds float32
	Taper    float32
	Holder   int64  // session holding the steering lock, 0 = free
	Version  uint64 // increments on every accepted parameter change
}

// EncodeSteerStatus marshals a SteerStatus.
func EncodeSteerStatus(s SteerStatus) []byte {
	var e encoder
	e.f32(s.InflowU)
	e.f32(s.Reynolds)
	e.f32(s.Taper)
	e.i64(s.Holder)
	e.u64(s.Version)
	return e.buf
}

// DecodeSteerStatus unmarshals a SteerStatus.
//
//vw:testonly
func DecodeSteerStatus(buf []byte) (SteerStatus, error) {
	d := decoder{buf: buf}
	var s SteerStatus
	s.InflowU = d.f32()
	s.Reynolds = d.f32()
	s.Taper = d.f32()
	s.Holder = d.i64()
	s.Version = d.u64()
	return s, d.err
}
