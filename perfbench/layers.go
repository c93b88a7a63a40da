package main

import (
	"crypto/sha256"
	"fmt"

	"adascale/internal/adascale"
	"adascale/internal/eval"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
	"adascale/internal/tensor"
)

const (
	// systemSeed fixes the training corpus of the system that stream,
	// serve and fleet serve, so every run serves the same model; --seed
	// picks the video served and the arrival schedules.
	systemSeed = 1
	// trainSnippets is the training corpus of every build (96 frames).
	trainSnippets = 8
	// videoSnippets is the video stream, serve and fleet serve (1008
	// frames, enough for a p99 with ten samples beyond it).
	videoSnippets = 84
)

// system is a trained AdaScale deployment and the video it serves.
type system struct {
	sys   *adascale.System
	video []synth.Snippet
}

// setupSystem generates the training corpus and the video, and builds the
// system with the paper's Fig. 2 methodology. It returns the wall seconds
// of the build alone.
func setupSystem(seed int64, tr *tracer) (*system, float64, error) {
	sp := tr.begin("synth.Generate", -1)
	corpus, err := synth.Generate(synth.VIDLike(systemSeed), trainSnippets, 0)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("synth.Generate", -1)
	video, err := synth.Generate(synth.VIDLike(seed), 0, videoSnippets)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("adascale.Build", -1)
	sw := startWatch()
	sys := adascale.Build(corpus, adascale.DefaultBuildConfig())
	buildS := sw.seconds()
	tr.end(sp)
	return &system{sys: sys, video: video.Val}, buildS, nil
}

// backboneFLOP counts the multiply-adds (as two operations each) of one
// backbone pass over an h×w rendered image: three 3×3 stride-2 pad-1
// convolutions, 1→8, 8→12 and 12→12 channels, as rfcn.NewBackbone builds
// them.
func backboneFLOP(h, w int) float64 {
	var flop float64
	in := 1
	for _, out := range []int{8, 12, 12} {
		h, w = tensor.ConvOutSize(h, 3, 2, 1), tensor.ConvOutSize(w, 3, 2, 1)
		flop += 2 * float64(in*9*out*h*w)
		in = out
	}
	return flop
}

// frameFLOP is the backbone work for frame f tested at scale.
func frameFLOP(det *rfcn.Detector, f *synth.Frame, scale int) float64 {
	return backboneFLOP(det.RenderSize(f, scale))
}

// meanAP scores outputs against their frames' ground truth.
func meanAP(tr *tracer, outs []adascale.FrameOutput, nClasses int) float64 {
	fd := make([]eval.FrameDetections, len(outs))
	for i, o := range outs {
		fd[i] = eval.FrameDetections{Detections: o.Detections, GroundTruth: o.Frame.GroundTruth()}
	}
	sp := tr.begin("eval.Evaluate", -1)
	res := eval.Evaluate(fd, nClasses)
	tr.end(sp)
	return res.MAP
}

// digest hashes a canonical rendering of a run's outputs.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// probe selects the calls a probe times beyond render, backbone and detect.
type probe struct {
	features bool // Detector.DetectWithFeatures
	predict  bool // Regressor.Predict on those features
}

// run times single calls into the layers under Algorithm 1 on the
// (frame, scale) pairs, one span per call with the pair's index as the
// request id, and sets the metrics of those layers. The backbone runs on
// the rendered image through a fresh rfcn.Backbone, which holds the same
// frozen weights as the detector's.
func (p probe) run(tr *tracer, det *rfcn.Detector, reg *regressor.Regressor, frames []*synth.Frame, scales []int, m metricSet) error {
	bb := rfcn.NewBackbone()
	div := det.Data.RenderDiv
	var flop float64
	for i, f := range frames {
		s, req := scales[i], int64(i)
		root := tr.begin("probe", req)
		sp := tr.begin("synth.Frame.Render", req)
		im := f.Render(max(s/div, 16), rfcn.MaxLongSide*div, div)
		tr.end(sp)
		if h, w := det.RenderSize(f, s); im.H != h || im.W != w {
			return fmt.Errorf("probe rendered %dx%d at scale %d, detector renders %dx%d", im.H, im.W, s, h, w)
		}
		sp = tr.begin("rfcn.Backbone.Extract", req)
		bb.Recycle(bb.Extract(im))
		tr.end(sp)
		flop += backboneFLOP(im.H, im.W)

		sp = tr.begin("rfcn.Detector.Detect", req)
		r := det.Detect(f, s)
		tr.end(sp)
		r.Release()
		if p.features {
			sp = tr.begin("rfcn.Detector.DetectWithFeatures", req)
			r = det.DetectWithFeatures(f, s)
			tr.end(sp)
			if p.predict {
				sp = tr.begin("regressor.Predict", req)
				reg.Predict(r.Features)
				tr.end(sp)
			}
			det.Recycle(r.Features)
			r.Features = nil
			r.Release()
		}
		tr.end(root)
	}
	m.set("synth.render_ms", tr.medianMS("synth.Frame.Render"))
	m.set("rfcn.backbone_ms", tr.medianMS("rfcn.Backbone.Extract"))
	m.set("rfcn.backbone_gflop_per_s", flop/(tr.sumMS("rfcn.Backbone.Extract")*1e6))
	m.set("rfcn.detect_ms", tr.medianMS("rfcn.Detector.Detect"))
	m.set("rfcn.features_ms", tr.medianMS("rfcn.Detector.DetectWithFeatures"))
	m.set("regressor.predict_ms", tr.medianMS("regressor.Predict"))
	return nil
}

// sample takes about n evenly spaced (frame, scale) pairs from the outputs.
func sample(outs []adascale.FrameOutput, n int) ([]*synth.Frame, []int) {
	step := max(len(outs)/n, 1)
	var frames []*synth.Frame
	var scales []int
	for i := 0; i < len(outs); i += step {
		frames = append(frames, outs[i].Frame)
		scales = append(scales, outs[i].Scale)
	}
	return frames, scales
}
