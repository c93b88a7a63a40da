package main

import (
	"fmt"
	"strings"

	"adascale/internal/adascale"
	"adascale/internal/serve"
)

// Serving load: one stream per snippet of the video, so the served frames
// are the 1008 frames stream runs through Algorithm 1. Arrivals are
// open-loop Poisson in virtual time at a per-stream rate that keeps the two
// workers about half busy, so drops stay rare and real compute dominates
// the wall time. Batching stays at the shipped default (off).
const (
	serveStreams    = videoSnippets
	serveFPS        = 0.3
	serveQueueDepth = 4
	serveSLOMS      = 150
)

// serveBench is several streams through serve.Server.Run with real
// compute: the scheduler, the pool, the resilient sessions and the SLO
// ladder on top of the compute stream measures alone. Each timed
// repetition is one Run over the same arrivals.
type serveBench struct {
	seed int64
	*system
	load []serve.Stream
	rep  *serve.Report // the last repetition's
}

func newServe(seed int64) bench { return &serveBench{seed: seed} }

func (s *serveBench) setup(tr *tracer) (float64, error) {
	sys, buildS, err := setupSystem(s.seed, tr)
	if err != nil {
		return 0, err
	}
	s.system = sys
	s.load, err = serve.GenLoad(sys.video, serve.LoadConfig{
		Streams: serveStreams, FPS: serveFPS, FramesPerStream: len(sys.video[0].Frames), Seed: s.seed,
	})
	return buildS, err
}

func (s *serveBench) config(modelOnly bool) serve.Config {
	return serve.Config{
		Workers:    workers,
		QueueDepth: serveQueueDepth,
		SLOMS:      serveSLOMS,
		Resilient:  adascale.DefaultResilientConfig(),
		ModelOnly:  modelOnly,
	}
}

func (s *serveBench) unit(tr *tracer) (unitResult, error) {
	srv, err := serve.New(s.sys.Detector, s.sys.Regressor, s.config(false))
	if err != nil {
		return unitResult{}, err
	}
	sp := tr.begin("serve.Server.Run", -1)
	sw := startWatch()
	rep := srv.Run(s.load)
	wall := sw.seconds()
	tr.end(sp)

	s.rep = rep
	offered := 0
	var b strings.Builder
	for _, st := range rep.Streams {
		offered += st.Offered
		fmt.Fprintf(&b, "stream %d offered %d slo_miss %d dropped", st.ID, st.Offered, st.SLOMisses)
		for _, f := range st.Dropped {
			fmt.Fprintf(&b, " s%d/%d", f.SnippetID, f.Index)
		}
		b.WriteString("\n")
		b.WriteString(adascale.FormatTrace(st.Outputs))
	}
	return unitResult{
		wallS: wall, frames: offered, lost: rep.Lost(),
		digest: digest(b.String(), rep.Metrics.Snapshot()),
	}, nil
}

// check needs nothing beyond what every repetition checks: no frame lost
// and the same outputs on every repetition.
func (s *serveBench) check() error { return nil }

func (s *serveBench) layers(tr *tracer, m metricSet) error {
	rep, det := s.rep, s.sys.Detector
	m.set("serve.run_s", tr.medianMS("serve.Server.Run")/1000)
	for i := 0; i < 3; i++ {
		srv, err := serve.New(det, s.sys.Regressor, s.config(true))
		if err != nil {
			return err
		}
		sp := tr.begin("serve.Server.Run(ModelOnly)", -1)
		mo := srv.Run(s.load)
		tr.end(sp)
		if mo.Lost() != 0 {
			return fmt.Errorf("serve: model-only run lost %d frames", mo.Lost())
		}
	}
	m.set("serve.model_only_s", tr.medianMS("serve.Server.Run(ModelOnly)")/1000)

	offered := float64(rep.Metrics.Counter("frames/offered"))
	served := rep.Served()
	misses := 0
	for _, st := range rep.Streams {
		misses += st.SLOMisses
	}
	m.set("serve.skipped_frac", float64(rep.Metrics.Counter("frames/skipped"))/offered)
	m.set("serve.queue_wait_ms_p95", rep.Metrics.Quantile("queue/wait_ms", 0.95))
	m.set("drop_rate", float64(rep.TotalDropped())/offered)
	m.set("slo_miss_rate", float64(misses)/float64(len(served)))
	m.set("regressor.mean_scale", adascale.MeanScale(served))
	m.set("map", meanAP(tr, served, len(det.Data.Classes)))
	m.set("eval.evaluate_ms", tr.medianMS("eval.Evaluate"))

	// Backbone work per served frame, counting the frames a detector pass
	// served (not the skipped or propagated ones).
	var flop float64
	var ran []adascale.FrameOutput
	for _, o := range served {
		if o.Health.Fallback == adascale.FallbackNone && !o.Health.Propagated {
			flop += frameFLOP(det, o.Frame, o.Scale)
			ran = append(ran, o)
		}
	}
	m.set("rfcn.backbone_mflop_per_frame", flop/float64(len(served))/1e6)
	frames, scales := sample(ran, 100)
	return probe{features: true, predict: true}.run(tr, det, s.sys.Regressor, frames, scales, m)
}
