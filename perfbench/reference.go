package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/core"
	"colormatch/internal/device/camera"
	"colormatch/internal/fleet"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/wei"
)

// The reference run: a fixed-seed fleet of one in-process cell with one
// lane, independent of --seed, whose outputs must hash to referenceDigest.
// It is the "bit-identical per seed" rule: a change that alters simulated
// results must update the digest on purpose.
const (
	referenceSeed    = 20230816
	referenceSamples = 64
	referenceStock   = 10
	referenceDigest  = "71c8c621ff9e3f72"
)

// protocol is the paper's Figure 4 campaign: target #787878, batch 4.
func protocol(samples int) core.Config {
	return core.Config{
		Target:       color.RGB8{R: 0x78, G: 0x78, B: 0x78},
		TotalSamples: samples,
		BatchSize:    4,
	}
}

// solverFor alternates the two solvers of the paper's comparison.
func solverFor(i int) string {
	if i%2 == 0 {
		return "genetic"
	}
	return "bayesian"
}

func referenceCampaigns() []fleet.Campaign {
	camps := make([]fleet.Campaign, 2)
	for i := range camps {
		camps[i] = fleet.Campaign{Name: "ref_" + solverFor(i), Solver: solverFor(i), Config: protocol(referenceSamples)}
	}
	return camps
}

// digest hashes what a campaign's science depends on: every sample's
// ratios, observed color and score, and each campaign's virtual end time.
func digest(res *fleet.Result) (string, error) {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) } // hash writes never fail
	for _, cr := range res.Campaigns {
		if cr.Status != fleet.StatusCompleted || cr.Result == nil {
			return "", fmt.Errorf("campaign %s: %s: %v", cr.Campaign.Name, cr.Status, cr.Err)
		}
		fmt.Fprintf(h, "%s|%d|", cr.Campaign.Name, len(cr.Result.Samples))
		for _, s := range cr.Result.Samples {
			for _, r := range s.Ratios {
				put(math.Float64bits(r))
			}
			h.Write([]byte{s.Color.R, s.Color.G, s.Color.B})
			put(math.Float64bits(s.Score))
		}
		put(uint64(cr.Result.End.UnixNano()))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// frame is one take_picture result captured at the camera and the host time
// the call took.
type frame struct {
	result wei.Result
	took   time.Duration
}

// captureClient is the engine's module client with the camera's
// take_picture timed and its frames kept.
type captureClient struct {
	wei.Client
	mu     sync.Mutex
	frames []frame
}

func (c *captureClient) Act(ctx context.Context, module, action string, args wei.Args) (wei.Result, error) {
	if module != "camera" || action != "take_picture" {
		return c.Client.Act(ctx, module, action, args)
	}
	start := time.Now()
	res, err := c.Client.Act(ctx, module, action, args)
	took := time.Since(start)
	if err == nil {
		c.mu.Lock()
		c.frames = append(c.frames, frame{result: res, took: took})
		c.mu.Unlock()
	}
	return res, err
}

// captureCell is an in-process cell built as fleet.Run's local pool builds
// its first cell, with the camera calls going through a captureClient.
type captureCell struct {
	wc  *core.SimWorkcell
	eng *wei.Engine
}

func (c *captureCell) Engine() *wei.Engine                           { return c.eng }
func (c *captureCell) Clock() sim.Clock                              { return c.wc.Clock }
func (c *captureCell) Prepare(context.Context, fleet.Campaign) error { return nil }
func (c *captureCell) Close() error                                  { return nil }

// runReference runs the reference campaigns and returns their digest. With
// capture set the cell is a captureCell and the tracing wrappers are
// installed, so the digest also proves they leave behaviour alone; the
// captured frames are returned.
func runReference(ctx context.Context, capture bool) (string, []frame, error) {
	opts := fleet.Options{Batch: 4, Seed: referenceSeed}
	var client *captureClient
	if !capture {
		opts.Workcells = 1
		opts.PlateStock = referenceStock
	} else {
		wc := core.NewSimWorkcell(core.WorkcellOptions{Seed: referenceSeed + 1000, PlateStock: referenceStock, NumOT2: 1})
		client = &captureClient{Client: wc.Registry}
		eng := wei.NewEngine(client, wc.Clock, wei.NewEventLog(wc.Clock))
		eng.Reservations = wei.NewReservations(wc.Clock)
		cell := &captureCell{wc: wc, eng: eng}
		reg := fleet.NewRegistry(fleet.RegistryOptions{Seed: referenceSeed})
		defer reg.Close()
		if _, err := reg.Add(fleet.MemberSpec{
			Name:      "cell0",
			Open:      func(context.Context) (fleet.Cell, error) { return cell, nil },
			Caps:      wei.Capabilities{Lanes: 1, OT2s: 1, Camera: true},
			CapsKnown: true,
		}); err != nil {
			return "", nil, err
		}
		tr := newTracer()
		opts.Registry = reg
		opts.EventSink = tr.sink(nil)
		opts.NewSolver = tr.newSolver
	}
	res, err := fleet.Run(ctx, referenceCampaigns(), opts)
	if err != nil {
		return "", nil, fmt.Errorf("reference run: %w", err)
	}
	d, err := digest(res)
	if err != nil {
		return "", nil, fmt.Errorf("reference run: %w", err)
	}
	if client == nil {
		return d, nil, nil
	}
	return d, client.frames, nil
}

// replayPasses is how many times each captured frame goes through the
// codec and analysis chain.
const replayPasses = 3

// replay times the frame hand-off an in-process campaign pays on every
// captured frame — base64 and PNG decode, analysis, PNG and base64 encode —
// and checks that the codec round trip reproduces the camera's bytes.
func replay(frames []frame) (map[string]stat, error) {
	var takes, renders, decFrame, decPNG, analyze, encPNG, encB64 []float64
	an := vision.NewAnalyzer()
	for i, f := range frames {
		takes = append(takes, ms(f.took))
		for pass := 0; pass < replayPasses; pass++ {
			t0 := time.Now()
			data, err := camera.DecodeFrame(f.result)
			if err != nil {
				return nil, fmt.Errorf("frame %d: %w", i, err)
			}
			t1 := time.Now()
			img, err := vision.DecodePNG(data)
			if err != nil {
				return nil, fmt.Errorf("frame %d: %w", i, err)
			}
			t2 := time.Now()
			if _, err := an.Analyze(img); err != nil {
				return nil, fmt.Errorf("frame %d: %w", i, err)
			}
			t3 := time.Now()
			png, err := vision.EncodePNG(img)
			if err != nil {
				return nil, fmt.Errorf("frame %d: %w", i, err)
			}
			t4 := time.Now()
			b64 := base64.StdEncoding.EncodeToString(png)
			t5 := time.Now()
			if !bytes.Equal(png, data) || b64 != f.result["image_png"] {
				return nil, fmt.Errorf("frame %d: PNG/base64 round trip changed the frame", i)
			}
			decFrame = append(decFrame, ms(t1.Sub(t0)))
			decPNG = append(decPNG, ms(t2.Sub(t1)))
			analyze = append(analyze, ms(t3.Sub(t2)))
			encPNG = append(encPNG, ms(t4.Sub(t3)))
			encB64 = append(encB64, ms(t5.Sub(t4)))
			if pass == 0 {
				renders = append(renders, ms(f.took-t5.Sub(t3)))
			}
		}
	}
	return map[string]stat{
		"camera.take_picture_ms.p50": percentile(takes, 0.5),
		"vision.render_ms":           percentile(renders, 0.5),
		"camera.decode_frame_ms":     percentile(decFrame, 0.5),
		"vision.decode_png_ms":       percentile(decPNG, 0.5),
		"vision.analyze_ms":          percentile(analyze, 0.5),
		"vision.encode_png_ms":       percentile(encPNG, 0.5),
		"camera.encode_b64_ms":       percentile(encB64, 0.5),
	}, nil
}
