package labware

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Standard 96-well plate geometry (SBS format).
const (
	PlateRows  = 8
	PlateCols  = 12
	PlateWells = PlateRows * PlateCols
	// WellCapacityUL is the maximum liquid volume per well in microliters.
	WellCapacityUL = 360.0
)

// WellAddress identifies a well on a plate; Row and Col are zero-based
// (row 0 = "A", col 0 = "1").
type WellAddress struct {
	Row, Col int
}

// String formats the address in standard plate notation, e.g. "A1" or "H12".
func (w WellAddress) String() string {
	return fmt.Sprintf("%c%d", 'A'+rune(w.Row), w.Col+1)
}

// Index returns the row-major ordinal of the well (A1=0 ... H12=95).
func (w WellAddress) Index() int { return w.Row*PlateCols + w.Col }

// WellAt returns the address of the i-th well in row-major order.
// It panics if i is out of range.
func WellAt(i int) WellAddress {
	if i < 0 || i >= PlateWells {
		panic(fmt.Sprintf("labware: well index %d out of range", i))
	}
	return WellAddress{Row: i / PlateCols, Col: i % PlateCols}
}

// ParseWell parses plate notation such as "A1", "h12" or "C07".
func ParseWell(s string) (WellAddress, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	if len(s) < 2 {
		return WellAddress{}, fmt.Errorf("labware: invalid well %q", s)
	}
	row := int(s[0] - 'A')
	if row < 0 || row >= PlateRows {
		return WellAddress{}, fmt.Errorf("labware: invalid well row in %q", s)
	}
	col, err := strconv.Atoi(s[1:])
	if err != nil || col < 1 || col > PlateCols {
		return WellAddress{}, fmt.Errorf("labware: invalid well column in %q", s)
	}
	return WellAddress{Row: row, Col: col - 1}, nil
}

// Well holds the liquid contents of one well as a volume per dye, in
// microliters.
type Well struct {
	Volumes []float64
}

// Total returns the total liquid volume in the well.
func (w *Well) Total() float64 {
	t := 0.0
	for _, v := range w.Volumes {
		t += v
	}
	return t
}

// Plate is a 96-well microplate whose wells accumulate dispensed dyes.
// Plates are consumed front-to-back in row-major order, as the OT-2 protocol
// does. Plate methods are safe for concurrent use.
type Plate struct {
	ID string

	mu    sync.Mutex
	wells [PlateWells]Well
	used  int // wells that have received liquid, row-major prefix
}

// NewPlate returns a fresh, empty plate with the given identifier.
func NewPlate(id string) *Plate { return &Plate{ID: id} }

// ErrWellOverflow reports a dispense that would exceed well capacity.
var ErrWellOverflow = errors.New("labware: well capacity exceeded")

// Dispense adds the given per-dye volumes into the well at addr.
func (p *Plate) Dispense(addr WellAddress, volumes []float64) error {
	if addr.Row < 0 || addr.Row >= PlateRows || addr.Col < 0 || addr.Col >= PlateCols {
		return fmt.Errorf("labware: address %v out of range", addr)
	}
	total := 0.0
	for _, v := range volumes {
		if v < 0 {
			return fmt.Errorf("labware: negative dispense volume %v", v)
		}
		total += v
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w := &p.wells[addr.Index()]
	if w.Total()+total > WellCapacityUL {
		return fmt.Errorf("%w: well %v has %.1fµL, adding %.1fµL exceeds %.0fµL",
			ErrWellOverflow, addr, w.Total(), total, WellCapacityUL)
	}
	if len(w.Volumes) < len(volumes) {
		nv := make([]float64, len(volumes))
		copy(nv, w.Volumes)
		w.Volumes = nv
	}
	for i, v := range volumes {
		w.Volumes[i] += v
	}
	if addr.Index() >= p.used && total > 0 {
		p.used = addr.Index() + 1
	}
	return nil
}

// Contents returns a copy of the per-dye volumes in the well at addr.
func (p *Plate) Contents(addr WellAddress) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.wells[addr.Index()]
	out := make([]float64, len(w.Volumes))
	copy(out, w.Volumes)
	return out
}

// Used returns the number of wells consumed so far (row-major prefix).
func (p *Plate) Used() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Reservoir is one of the OT-2's dye reservoirs, refilled by barty's
// peristaltic pumps from larger storage vessels.
type Reservoir struct {
	Name     string
	Capacity float64 // microliters

	mu     sync.Mutex
	volume float64
}

// NewReservoir returns a reservoir with the given capacity, initially empty.
func NewReservoir(name string, capacityUL float64) *Reservoir {
	return &Reservoir{Name: name, Capacity: capacityUL}
}

// ErrInsufficient reports a draw exceeding the available volume.
var ErrInsufficient = errors.New("labware: insufficient reservoir volume")

// Volume returns the liquid currently held.
func (r *Reservoir) Volume() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.volume
}

// Draw removes v microliters, failing without side effects if not available.
func (r *Reservoir) Draw(v float64) error {
	if v < 0 {
		return fmt.Errorf("labware: negative draw %v", v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v > r.volume+1e-9 {
		return fmt.Errorf("%w: %s has %.1fµL, need %.1fµL", ErrInsufficient, r.Name, r.volume, v)
	}
	r.volume -= v
	if r.volume < 0 {
		r.volume = 0
	}
	return nil
}

// Fill adds v microliters, capped at capacity; it returns the volume
// actually added.
func (r *Reservoir) Fill(v float64) float64 {
	if v < 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	add := v
	if r.volume+add > r.Capacity {
		add = r.Capacity - r.volume
	}
	r.volume += add
	return add
}

// Drain empties the reservoir and returns the volume removed.
func (r *Reservoir) Drain() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.volume
	r.volume = 0
	return v
}
