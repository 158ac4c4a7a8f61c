// Package obs is the observability layer of the expert-finding system:
// a concurrency-safe metrics registry with Prometheus text exposition
// (registry.go), lightweight hierarchical trace spans that time pipeline
// phases (span.go), cross-node trace context and request ids (trace.go),
// and a tail-sampled trace store (tracestore.go). Logging is log/slog;
// this package only supplies the silent logger libraries default to.
// Everything is standard library only.
//
// Metric naming follows the Prometheus conventions under a single
// `expertfind_` prefix: counters end in `_total`, durations are histograms
// in seconds ending in `_seconds`, and bounded label sets (route, code,
// stage) keep cardinality small. All span durations land in one histogram
// family, `expertfind_stage_seconds{stage="<span path>"}`, so the offline
// build phases and the online query stages share an exposition schema.
// Every other family has one owner — an engine, server, router, shard
// client, store or follower — that creates its handles in its own
// registry when it is constructed; the name is written nowhere else.
package obs

import (
	"context"
	"log/slog"
)

var defaultReg = NewRegistry()

// Default returns the process-wide registry. An owner that is not handed
// a registry of its own (an engine, store, follower, shard client or
// router built with a nil one) records here.
func Default() *Registry { return defaultReg }

var nopLogger = slog.New(discardHandler{})

// NopLogger returns the logger that stands in for a nil one, so library
// code stays silent unless wired. Its handler reports every level
// disabled, so a caller guarding on Enabled skips building the arguments.
func NopLogger() *slog.Logger { return nopLogger }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
