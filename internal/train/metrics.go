package train

import "expertfind/internal/obs"

// Metrics aggregates fine-tuning Results in the building engine's
// registry.
type Metrics struct {
	runs, epochs, epochSeconds, triples, steps *obs.Counter
	loss                                       *obs.Gauge
}

// NewMetrics creates the fine-tuning counters in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		runs:         reg.Counter("expertfind_train_runs_total", "Fine-tuning runs completed."),
		epochs:       reg.Counter("expertfind_train_epochs_total", "Fine-tuning epochs completed."),
		epochSeconds: reg.Counter("expertfind_train_epoch_seconds_total", "Cumulative wall time spent in training epochs."),
		triples:      reg.Counter("expertfind_train_triples_total", "Training triples consumed by fine-tuning runs."),
		steps:        reg.Counter("expertfind_train_steps_total", "Optimiser steps taken by fine-tuning runs."),
		loss:         reg.Gauge("expertfind_train_loss", "Mean triplet loss of the most recent training epoch."),
	}
}

// Record adds one finished run.
func (m *Metrics) Record(r *Result) {
	m.runs.Inc()
	m.epochs.Add(float64(len(r.EpochLosses)))
	for _, d := range r.EpochTimes {
		m.epochSeconds.Add(d.Seconds())
	}
	m.triples.Add(float64(r.Triples))
	m.steps.Add(float64(r.Steps))
	if n := len(r.EpochLosses); n > 0 {
		m.loss.Set(r.EpochLosses[n-1])
	}
}
