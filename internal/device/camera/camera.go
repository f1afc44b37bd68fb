// Package camera simulates the workcell's imaging module: "a Logitech
// webcam mounted with a ring light that is used to capture images of the
// microplate. This module incorporates a microplate mount designed to allow
// the pf400 to place the microplate in the same location each time."
//
// take_picture renders a synthetic photograph of the plate currently on the
// camera mount — fiducial marker, plate body, and each well's liquid color
// computed from its actual dye contents via the world's optical model — and
// returns it as a lossless frame, as the application would receive one from
// the physical webcam: the image_png result is base64 text (the standard
// alphabet, padded) of a stored-block PNG written by vision.EncodePNG, and
// DecodeFrame turns it back into the PNG's bytes. All color information the
// solvers ever see passes through these pixels.
package camera

import (
	"context"
	"fmt"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/color/mix"
	"colormatch/internal/device"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/render"
	"colormatch/internal/wei"
)

// ExposureDuration is the modeled capture time per frame.
const ExposureDuration = 2 * time.Second

// Module is the camera WEI module.
type Module struct {
	*wei.Base
	world  *device.World
	timing *device.Timing
	sensor *mix.Sensor
	dict   *aruco.Dictionary
	geom   render.Geometry
	rng    *sim.RNG

	// jitterX/Y model the slow drift of the camera between exposures; they
	// are resampled occasionally rather than per frame, like a bumped tripod.
	jitterX, jitterY float64
	frames           int
}

// New returns a camera module bound to the world. rng drives sensor noise
// and camera drift; nil disables both.
func New(name string, world *device.World, rng *sim.RNG) *Module {
	var sensorRNG *sim.RNG
	if rng != nil {
		sensorRNG = rng.Derive("sensor")
	}
	m := &Module{
		Base:   wei.NewBase(name, "camera", "ring-lit webcam over the plate mount (simulated)"),
		world:  world,
		timing: &device.Timing{Clock: world.Clock, RNG: rng, Jitter: 0.1},
		sensor: mix.NewSensor(sensorRNG),
		dict:   aruco.Default(),
		geom:   render.Default(),
		rng:    rng,
	}
	m.Register(wei.ActionInfo{
		Name:        "take_picture",
		Description: "photograph the plate on the camera mount; returns a PNG frame",
	}, m.takePicture)
	return m
}

// Dict exposes the fiducial dictionary (the application's analyzer must use
// the same one).
func (m *Module) Dict() *aruco.Dictionary { return m.dict }

// Geometry exposes the camera-frame geometry.
func (m *Module) Geometry() render.Geometry { return m.geom }

func (m *Module) takePicture(ctx context.Context, args wei.Args) (wei.Result, error) {
	plate, err := m.world.PlateAt(device.LocCamera)
	if err != nil {
		return nil, fmt.Errorf("camera: nothing on the mount: %w", err)
	}
	m.timing.Work(ExposureDuration)

	// Drift the camera slightly every few frames.
	if m.rng != nil && m.frames%8 == 0 {
		m.jitterX = m.rng.Uniform(-6, 6)
		m.jitterY = m.rng.Uniform(-6, 6)
	}
	m.frames++

	scene := render.NewScene()
	scene.Geom = m.geom
	scene.JitterX, scene.JitterY = m.jitterX, m.jitterY
	model := m.world.Model
	scene.SetPlate(plate, func(volumes []float64) (color.RGB8, bool) {
		lin, err := model.MixVolumes(volumes)
		if err != nil {
			return color.RGB8{}, false
		}
		return m.sensor.Observe(lin), true
	})

	var pixelRNG *sim.RNG
	if m.rng != nil {
		pixelRNG = m.rng.Derive(fmt.Sprintf("frame-%d", m.frames))
	}
	img := scene.Render(m.dict, pixelRNG)
	data, err := vision.EncodePNG(img)
	if err != nil {
		return nil, fmt.Errorf("camera: encode frame: %w", err)
	}
	return wei.Result{
		"image_png":  encodeBase64(data),
		"plate_id":   plate.ID,
		"wells_used": float64(plate.Used()),
		"frame":      float64(m.frames),
	}, nil
}

// DecodeFrame extracts the PNG bytes from a take_picture result's base64
// image_png string. The string is the same in process and over HTTP, where
// it crosses as a raw part of the action response body.
func DecodeFrame(res wei.Result) ([]byte, error) {
	v, ok := res["image_png"]
	if !ok {
		return nil, fmt.Errorf("camera: result has no image_png")
	}
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("camera: image_png is %T, want base64 string", v)
	}
	data, err := decodeBase64(s)
	if err != nil {
		return nil, fmt.Errorf("camera: decode frame: %w", err)
	}
	return data, nil
}
