package obs

import (
	"context"
	"log/slog"
	"testing"
)

// TestLoggerLevels: the logger that stands in for a nil one reports every
// level disabled, so a caller guarding on Enabled builds no arguments, and
// what it derives stays silent too.
func TestLoggerLevels(t *testing.T) {
	ctx := context.Background()
	for _, l := range []*slog.Logger{NopLogger(), NopLogger().With("req_id", "abc"), NopLogger().WithGroup("g")} {
		for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 4} {
			if l.Enabled(ctx, lvl) {
				t.Errorf("level %v enabled on the silent logger", lvl)
			}
		}
		l.Error("dropped", "k", "v") // must not panic
	}
}
