package conftest_test

import (
	"testing"

	pandora "pandora"
	"pandora/internal/conftest"
)

// factory adapts a Config into a conftest.Factory that builds a fresh
// cluster per subtest and registers Close.
func factory(cfg pandora.Config) conftest.Factory {
	return func(tb testing.TB) *pandora.Cluster {
		c, err := pandora.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(c.Close)
		return c
	}
}

func baseConfig() pandora.Config {
	return pandora.Config{
		Tables: []pandora.TableSpec{
			{Name: conftest.Table, ValueSize: 16, Capacity: 4096},
		},
	}
}

// TestConformanceDefaults: the stock configuration (default-sized read
// cache, synchronous commit tail).
func TestConformanceDefaults(t *testing.T) {
	conftest.Run(t, factory(baseConfig()))
}

// TestConformanceRawBaseline: every tuned path off — no read cache.
// This is the shape the litmus family pins.
func TestConformanceRawBaseline(t *testing.T) {
	cfg := baseConfig()
	cfg.ReadCacheSize = -1
	conftest.Run(t, factory(cfg))
}

// TestConformanceTuned: an explicitly sized read cache.
func TestConformanceTuned(t *testing.T) {
	cfg := baseConfig()
	cfg.ReadCacheSize = 4096
	conftest.Run(t, factory(cfg))
}

// TestConformanceFORDBaseline: the fixed FORD protocol (Pandora's
// recovery, Table-1 fixes applied) must pass the same battery.
func TestConformanceFORDBaseline(t *testing.T) {
	cfg := baseConfig()
	cfg.Protocol = pandora.ProtocolFORD
	conftest.Run(t, factory(cfg))
}
