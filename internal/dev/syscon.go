package dev

// SysCon register offsets.
const (
	SysConExit uint32 = 0x00 // write: halt simulation with exit code
)

// SysCon is the test-finisher device: bare-metal programs store an exit
// code to it to end the simulation, the role the HTIF tohost register
// plays for riscv-tests and the sifive_test device plays for QEMU.
type SysCon struct {
	// OnExit is invoked with the exit code when software writes the
	// exit register. The virtual platform wires this to the machine's
	// stop request.
	OnExit func(code uint32)
}

// Load implements mem.Device.
func (s *SysCon) Load(off uint32, size uint8) (uint32, bool) {
	if off == SysConExit {
		return 0, true
	}
	return 0, false
}

// Store implements mem.Device.
func (s *SysCon) Store(off uint32, size uint8, val uint32) bool {
	if off == SysConExit {
		if s.OnExit != nil {
			s.OnExit(val)
		}
		return true
	}
	return false
}

// Sensor register offsets.
const (
	SensorSample uint32 = 0x00 // read: next sample (signed 16-bit, sign-extended)
	SensorCount  uint32 = 0x04 // read: samples remaining
)

// Sensor is a synthetic edge-device data source: a queue of 16-bit
// samples the demonstrator applications stream in. Reading past the end
// returns zero, mimicking a quiet ADC.
type Sensor struct {
	samples []int16
	pos     int
}

// NewSensor creates a sensor preloaded with samples.
func NewSensor(samples []int16) *Sensor { return &Sensor{samples: samples} }

// Pos returns the read position (for snapshotting).
func (s *Sensor) Pos() int { return s.pos }

// SetPos rewinds or advances the read position.
func (s *Sensor) SetPos(p int) {
	if p < 0 {
		p = 0
	}
	if p > len(s.samples) {
		p = len(s.samples)
	}
	s.pos = p
}

// Load implements mem.Device.
func (s *Sensor) Load(off uint32, size uint8) (uint32, bool) {
	switch off {
	case SensorSample:
		if s.pos >= len(s.samples) {
			return 0, true
		}
		v := s.samples[s.pos]
		s.pos++
		return uint32(int32(v)), true
	case SensorCount:
		return uint32(len(s.samples) - s.pos), true
	}
	return 0, false
}

// Store implements mem.Device: the sensor is read-only, so every store
// is refused.
func (s *Sensor) Store(off uint32, size uint8, val uint32) bool {
	return false
}
