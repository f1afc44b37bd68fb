package wei

// Capabilities describes what a workcell can do. A workcell server
// advertises it on /healthz, and the fleet control plane records it per
// member and reports it on GET /members; it does not steer placement. The
// zero value means nothing was advertised.
type Capabilities struct {
	// Lanes is the number of campaigns the cell can run concurrently.
	Lanes int `json:"lanes,omitempty"`
	// OT2s is the number of liquid-handler modules.
	OT2s int `json:"ot2s,omitempty"`
	// Realtime reports instruments running on the wall clock (real hardware
	// or -realtime simulation) rather than a virtual clock.
	Realtime bool `json:"realtime,omitempty"`
	// Camera reports an imaging module is present.
	Camera bool `json:"camera,omitempty"`
}
