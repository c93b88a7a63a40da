package main

import (
	"fmt"
	"strings"
	"time"

	"adascale/internal/adascale"
	"adascale/internal/regressor"
	"adascale/internal/simclock"
)

// streamBench is one camera through Algorithm 1, a closed loop with one
// caller: each frame is detected at the scale the previous frame's
// regressor output chose, and each snippet starts at scale 600. Each timed
// repetition is one pass over the whole video, timed frame by frame.
type streamBench struct {
	seed int64
	*system
	outs    []adascale.FrameOutput // the last pass
	nextReq int64
}

func newStream(seed int64) bench { return &streamBench{seed: seed} }

func (s *streamBench) setup(tr *tracer) (float64, error) {
	sys, buildS, err := setupSystem(s.seed, tr)
	s.system = sys
	return buildS, err
}

func (s *streamBench) unit(tr *tracer) (unitResult, error) {
	det, reg := s.sys.Detector, s.sys.Regressor
	overhead := simclock.RegressorMS(reg.Kernels)
	outs := make([]adascale.FrameOutput, 0, len(s.outs))
	var frameMS []float64
	var wall time.Duration
	for i := range s.video {
		sn := &s.video[i]
		scale := adascale.InitialScale
		for j := range sn.Frames {
			f := &sn.Frames[j]
			req := s.nextReq
			s.nextReq++
			step := tr.begin("adascale.step", req)
			sw := startWatch()
			sp := tr.begin("rfcn.Detector.DetectWithFeatures", req)
			r := det.DetectWithFeatures(f, scale)
			tr.end(sp)
			dets := r.PlainDetections()
			sp = tr.begin("regressor.Predict", req)
			t := reg.Predict(r.Features)
			tr.end(sp)
			det.Recycle(r.Features)
			r.Features = nil
			detMS := r.RuntimeMS
			r.Release()
			sp = tr.begin("regressor.DecodeScale", req)
			next := regressor.DecodeScale(t, scale)
			tr.end(sp)
			d := sw.elapsed()
			tr.end(step)

			wall += d
			frameMS = append(frameMS, float64(d)/1e6)
			outs = append(outs, adascale.FrameOutput{
				Frame: f, Scale: scale, Detections: dets,
				DetectorMS: detMS, OverheadMS: overhead,
			})
			scale = next
		}
	}
	s.outs = outs
	return unitResult{wallS: wall.Seconds(), frames: len(outs), frameMS: frameMS, digest: digest(adascale.FormatTrace(outs))}, nil
}

// check runs the program's own Algorithm 1 over the same video and
// requires the same scale and detections on every frame, and the same mAP.
func (s *streamBench) check() error {
	ref := adascale.RunDataset(s.video, adascale.AdaScaleRunner(s.sys.Detector, s.sys.Regressor))
	got, want := strings.Split(adascale.FormatTrace(s.outs), "\n"), strings.Split(adascale.FormatTrace(ref), "\n")
	if len(got) != len(want) {
		return fmt.Errorf("stream: %d frames, adascale.RunDataset gives %d", len(got)-1, len(want)-1)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("stream: frame %d is %q, adascale.RunDataset gives %q", i, got[i], want[i])
		}
	}
	n := len(s.sys.Detector.Data.Classes)
	if a, b := meanAP(nil, s.outs, n), meanAP(nil, ref, n); a != b {
		return fmt.Errorf("stream: mAP %v, adascale.RunDataset gives %v", a, b)
	}
	return nil
}

func (s *streamBench) layers(tr *tracer, m metricSet) error {
	det := s.sys.Detector
	var flop float64
	for _, o := range s.outs {
		flop += frameFLOP(det, o.Frame, o.Scale)
	}
	m.set("rfcn.backbone_mflop_per_frame", flop/float64(len(s.outs))/1e6)
	m.set("regressor.mean_scale", adascale.MeanScale(s.outs))
	m.set("map", meanAP(tr, s.outs, len(det.Data.Classes)))
	m.set("eval.evaluate_ms", tr.medianMS("eval.Evaluate"))
	frames, scales := sample(s.outs, 100)
	return probe{}.run(tr, det, nil, frames, scales, m)
}
