package main

import (
	"fmt"

	"adascale/internal/adascale"
	"adascale/internal/cluster"
	"adascale/internal/serve"
)

// Fleet load: tens of thousands of model-only streams on simulated nodes,
// with a seeded plan of node joins, leaves, blackouts and migrations.
const (
	fleetStreams    = 30000
	fleetFrames     = 8 // per stream
	fleetFPS        = 10
	fleetNodes      = 16
	fleetWorkers    = 8 // virtual serving capacity per node
	fleetQueueDepth = 3
	fleetSLOMS      = 80
	fleetEpochMS    = 500
	fleetEventRate  = 2 // plan events per virtual second
	// fleetPlanSeed fixes the event plan: it has a join, a leave, two
	// blackouts and migrations on any horizon the traffic gives.
	fleetPlanSeed = 6
)

// fleetBench is cluster.Cluster.Run across simulated nodes. It runs
// model-only on one goroutine, so all its time goes to the ring and the
// serve scheduler, none to detection. Each timed repetition is one Run.
type fleetBench struct {
	seed int64
	*system
	load []serve.Stream
	plan *cluster.Plan
	rep  *cluster.Report // the last repetition's
}

func newFleet(seed int64) bench { return &fleetBench{seed: seed} }

func (s *fleetBench) setup(tr *tracer) (float64, error) {
	sys, buildS, err := setupSystem(s.seed, tr)
	if err != nil {
		return 0, err
	}
	s.system = sys
	s.load, err = serve.GenLoad(sys.video, serve.LoadConfig{
		Streams: fleetStreams, FPS: fleetFPS, FramesPerStream: fleetFrames, Seed: s.seed,
	})
	if err != nil {
		return 0, err
	}
	horizon := 0.0
	for _, st := range s.load {
		horizon = max(horizon, st.Frames[len(st.Frames)-1].ArrivalMS)
	}
	// The event plan is the fixed fleet scenario: a run has only a handful
	// of events, so a plan drawn from the seed would swing the work far
	// more than the traffic does.
	s.plan, err = cluster.GenPlan(cluster.PlanConfig{
		Seed: fleetPlanSeed, HorizonMS: horizon + fleetEpochMS, Rate: fleetEventRate,
		Nodes: fleetNodes, Streams: fleetStreams,
	})
	return buildS, err
}

func (s *fleetBench) unit(tr *tracer) (unitResult, error) {
	cl, err := cluster.New(s.sys.Detector, s.sys.Regressor, cluster.Config{
		Nodes: fleetNodes, EpochMS: fleetEpochMS, Plan: s.plan,
		Node: serve.Config{
			Workers:        fleetWorkers,
			QueueDepth:     fleetQueueDepth,
			SLOMS:          fleetSLOMS,
			Resilient:      adascale.DefaultResilientConfig(),
			ModelOnly:      true,
			CompactMetrics: true,
		},
	})
	if err != nil {
		return unitResult{}, err
	}
	sp := tr.begin("cluster.Cluster.Run", -1)
	sw := startWatch()
	rep := cl.Run(s.load)
	wall := sw.seconds()
	tr.end(sp)

	s.rep = rep
	return unitResult{
		wallS: wall, frames: rep.Offered, lost: rep.Lost(),
		digest: digest(rep.String(), rep.Metrics.Snapshot()),
	}, nil
}

// check needs nothing beyond what every repetition checks: no frame lost
// and the same report on every repetition.
func (s *fleetBench) check() error { return nil }

func (s *fleetBench) layers(tr *tracer, m metricSet) error {
	rep := s.rep
	m.set("cluster.run_s", tr.medianMS("cluster.Cluster.Run")/1000)
	m.set("cluster.epochs", float64(rep.Epochs))
	m.set("cluster.failovers", float64(rep.Failovers))
	m.set("cluster.migrations", float64(rep.Migrations))
	m.set("drop_rate", float64(rep.Dropped)/float64(rep.Offered))
	m.set("slo_miss_rate", float64(rep.SLOMisses)/float64(rep.Served))
	m.set("serve.skipped_frac", float64(rep.Metrics.Counter("frames/skipped"))/float64(rep.Offered))
	m.set("serve.queue_wait_ms_p95", rep.Metrics.Quantile("queue/wait_ms", 0.95))

	// Placement of every stream on the initial fleet, as the first epoch
	// computes it.
	keys := make([]int, len(s.load))
	for i, st := range s.load {
		keys[i] = st.ID
	}
	ring := cluster.NewRing(cluster.RingConfig{})
	for n := 0; n < fleetNodes; n++ {
		ring.Add(n)
	}
	for i := 0; i < 5; i++ {
		sp := tr.begin("cluster.Ring.Assign", -1)
		got := ring.Assign(keys)
		tr.end(sp)
		if len(got) != len(keys) {
			return fmt.Errorf("fleet: ring assigned %d of %d streams", len(got), len(keys))
		}
	}
	m.set("cluster.ring_assign_ms", tr.medianMS("cluster.Ring.Assign"))
	return nil
}
