package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"adascale/internal/adascale"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/scaleopt"
	"adascale/internal/synth"
)

// buildBench is the paper's Fig. 2 build: optimal-scale labels for every
// training frame at all five S_reg scales, then two epochs of regressor
// training. Each timed repetition is one build; the regressor it trains
// must save byte-identical to the one adascale.Build trains.
type buildBench struct {
	seed    int64
	cfg     adascale.BuildConfig
	ds      *synth.Dataset
	det     *rfcn.Detector
	frames  []*synth.Frame
	saved   []byte // the last timed build's regressor, as Save writes it
	nLabels int
}

func newBuild(seed int64) bench {
	return &buildBench{seed: seed, cfg: adascale.DefaultBuildConfig()}
}

func (b *buildBench) setup(tr *tracer) (float64, error) {
	sp := tr.begin("synth.Generate", -1)
	ds, err := synth.Generate(synth.VIDLike(b.seed), trainSnippets, 0)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	b.ds, b.frames = ds, synth.Frames(ds.Train)
	b.det = rfcn.New(&ds.Config, b.cfg.TrainScales)
	return 0, nil
}

// unit repeats what adascale.Build does with the default configuration,
// one call at a time.
func (b *buildBench) unit(tr *tracer) (unitResult, error) {
	root := tr.begin("build", -1)
	sw := startWatch()
	sp := tr.begin("regressor.GenerateLabelsAllScales", -1)
	labels := regressor.GenerateLabelsAllScales(b.det, b.frames, b.cfg.RegScales)
	tr.end(sp)
	reg := regressor.New(rand.New(rand.NewSource(b.cfg.Seed)), b.cfg.Kernels)
	sp = tr.begin("regressor.Regressor.Fit", -1)
	reg.Fit(labels, b.cfg.Train)
	tr.end(sp)
	wall := sw.seconds()
	tr.end(root)

	var buf bytes.Buffer
	if err := reg.Save(&buf); err != nil {
		return unitResult{}, fmt.Errorf("save regressor: %w", err)
	}
	b.saved, b.nLabels = buf.Bytes(), len(labels)
	return unitResult{wallS: wall, frames: len(b.frames), digest: digest(buf.String())}, nil
}

func (b *buildBench) check() error {
	sys := adascale.Build(b.ds, b.cfg)
	var buf bytes.Buffer
	if err := sys.Regressor.Save(&buf); err != nil {
		return fmt.Errorf("save reference regressor: %w", err)
	}
	if !bytes.Equal(buf.Bytes(), b.saved) {
		return fmt.Errorf("build: timed regressor (%d bytes, %s) differs from adascale.Build's (%d bytes, %s)",
			len(b.saved), digest(string(b.saved)), buf.Len(), digest(buf.String()))
	}
	return nil
}

func (b *buildBench) layers(tr *tracer, m metricSet) error {
	m.set("regressor.labels_s", tr.medianMS("regressor.GenerateLabelsAllScales")/1000)
	m.set("regressor.fit_s", tr.medianMS("regressor.Regressor.Fit")/1000)
	batch := max(b.cfg.Train.BatchSize, 1)
	m.set("regressor.fit_steps", float64(b.cfg.Train.Epochs*((b.nLabels+batch-1)/batch)))

	var flop float64
	for _, f := range b.frames {
		for _, s := range b.cfg.RegScales {
			flop += frameFLOP(b.det, f, s)
		}
	}
	m.set("rfcn.backbone_mflop_per_frame", flop/float64(len(b.frames))/1e6)

	// Label generation runs OptimalScale once per frame and the detector
	// with features once per frame and S_reg scale; probe a spread of both.
	var frames []*synth.Frame
	var scales []int
	for i := 0; i < len(b.frames); i += 4 {
		f := b.frames[i]
		sp := tr.begin("scaleopt.OptimalScale", int64(i))
		scaleopt.OptimalScale(b.det, f, b.cfg.RegScales, scaleopt.DefaultLambda)
		tr.end(sp)
		for _, s := range b.cfg.RegScales {
			frames, scales = append(frames, f), append(scales, s)
		}
	}
	m.set("scaleopt.optimal_ms", tr.medianMS("scaleopt.OptimalScale"))
	return probe{features: true}.run(tr, b.det, nil, frames, scales, m)
}
