package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// logDigests pins the event log of every cell of the CI chaos matrix
// (Makefile chaos-smoke: the default mixed run at seed 42 / 8 events,
// commitpipe 2 crash points × 3 seeds, reconfig 3 × 3,
// all at the CLI's default shape) as a SHA-256. The CI lane compares a
// run against a second run of the same tree; these values were computed
// at the commit before the commit-pipeline refactor, so a change to the
// engine that moves any seeded outcome fails here even when it is
// self-consistent. A deliberate change to a scenario script or the
// schedule generator updates the affected rows.
var logDigests = map[string]string{
	"mixed/seed42": "7e54061e30157c1439bfb3eb042469a15923f652c5b6c01ffe573bab40844162",

	"commitpipe/afterack/seed1":  "22bd3a3f77f851a40ba459a6754815b3dc89826b1c78a45e074dfe14b61c07e0",
	"commitpipe/afterack/seed7":  "d30d5cb72ed6e079b0f119052d08b7f450502dd1eb17b8a83de11772e30efb0f",
	"commitpipe/afterack/seed42": "943f8cf4ce82b2cde0c04a6871e642e3640af57d074f55c323b9b3b65be813a7",
	"commitpipe/midtail/seed1":   "45c8c3c6652f6d41173d84e60bdcc9ef3b403b526bd37465110bdf73ce93af3b",
	"commitpipe/midtail/seed7":   "bd7b80cba63565d9e36f9bc19547253f0225ec93956f3db6b9c5d2372e106426",
	"commitpipe/midtail/seed42":  "ff27105da58ac3bb2c105e8204fc2f2f6aaf17c66b680727140117dd12973cee",

	"reconfig/coordinator/seed1":  "42df49a0c735d4b36dc6bd8531e39a0e87a10b0b2011ec294c259af600d0a806",
	"reconfig/coordinator/seed7":  "1bcc487d68036aa8dc245e8e4f748bd29b473af2cfab742d9da6eab04c5371a9",
	"reconfig/coordinator/seed42": "9c4940fb26008210c8030c64ad96d324a44044d6fe89244c64e38e337b955a05",
	"reconfig/source/seed1":       "c05367127a54b8dc25dac5006f16c60b8d2f432f8f738d4ef949a1893e85c41e",
	"reconfig/source/seed7":       "5a7cf8c227eb712ff3b0cb89950953ba8f2b0e33b684e24dd1ced2eb784423d9",
	"reconfig/source/seed42":      "fde7b39d46bab4b1080448c459fe40118742cb6b6692bd3713800856d3566e76",
	"reconfig/destination/seed1":  "8cf1ab1715a99031d5bdadb87e57592694a5a550b019697a331ed661c58f26d2",
	"reconfig/destination/seed7":  "718379cf5383a26ac19846c67dea690a1494d8c8bcdae79733168216110da363",
	"reconfig/destination/seed42": "0edd23380a3d9070f8a6a2a19a7877386192fdeb2e82b6b0ce992a7ffa5d151b",
}

// TestLogDigests runs the CI matrix and compares each event log's
// digest with the pinned one.
func TestLogDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios skipped in -short mode")
	}
	type scripted struct {
		family string
		modes  []string
		run    func(Config, string) (*Result, error)
	}
	families := []scripted{
		{"commitpipe", CommitPipeModes(), RunCommitPipe},
		{"reconfig", ReconfigModes(), RunReconfig},
	}
	check := func(name string, run func(Config) (*Result, error), cfg Config) {
		t.Run(name, func(t *testing.T) {
			var log strings.Builder
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(&log, format+"\n", args...)
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("run failed: %v\nlog:\n%s", err, log.String())
			}
			if len(res.Violations) > 0 {
				t.Fatalf("violations: %v\nlog:\n%s", res.Violations, log.String())
			}
			sum := sha256.Sum256([]byte(log.String()))
			if got, want := hex.EncodeToString(sum[:]), logDigests[name]; got != want {
				t.Fatalf("event log digest drifted: got %s, want %s\nlog:\n%s", got, want, log.String())
			}
		})
	}
	check("mixed/seed42", Run, Config{Seed: 42, Events: 8})
	for _, f := range families {
		for _, mode := range f.modes {
			for _, seed := range []int64{1, 7, 42} {
				f, mode := f, mode
				check(fmt.Sprintf("%s/%s/seed%d", f.family, mode, seed),
					func(cfg Config) (*Result, error) { return f.run(cfg, mode) },
					Config{Seed: seed})
			}
		}
	}
}
